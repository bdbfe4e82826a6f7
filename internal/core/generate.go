package core

import (
	"context"
	"errors"
	"math"

	"dbsherlock/internal/metrics"
	"dbsherlock/internal/obs"
)

// Params are the configurable parameters of the predicate-generation
// algorithm (paper Section 4 and Appendix D).
type Params struct {
	// NumPartitions is R, the number of equi-width partitions per
	// numeric attribute.
	NumPartitions int
	// Theta is the normalized difference threshold: a numeric attribute
	// yields a predicate only if its normalized abnormal and normal
	// means differ by more than Theta.
	Theta float64
	// Delta is the anomaly distance multiplier of the gap-filling step.
	Delta float64

	// Workers bounds the worker pool used for per-attribute partition
	// space construction (NewEvaluator) and per-model ranking; gap
	// filling and extraction run on the calling goroutine. Zero (the
	// default) and negative values size the pool to runtime.GOMAXPROCS;
	// 1 forces the sequential path. Parallel and sequential runs produce
	// byte-identical results: attributes are processed independently and
	// collected by index.
	Workers int

	// Ablation switches for the step-contribution experiment
	// (Table 6, Appendix D). Production use leaves them false.
	DisableFiltering  bool
	DisableGapFilling bool
}

// DefaultParams returns the paper's defaults: R=250, theta=0.2, delta=10
// (the Appendix D sweep defaults; theta is lowered to 0.05 when building
// models destined for merging, Section 8.5).
func DefaultParams() Params {
	return Params{NumPartitions: 250, Theta: 0.2, Delta: 10}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.NumPartitions < 2 {
		return errors.New("core: NumPartitions must be at least 2")
	}
	if p.Theta < 0 || p.Theta > 1 {
		return errors.New("core: Theta must be in [0, 1]")
	}
	if p.Delta <= 0 {
		return errors.New("core: Delta must be positive")
	}
	return nil
}

// Generate runs Algorithm 1 over every attribute of the dataset and
// returns the conjunct of candidate predicates with high separation
// power, in dataset column order. Attributes are independent, so
// partition-space construction and filtering fan out across a bounded
// worker pool sized by p.Workers; spaces are collected by attribute
// index, so the output is byte-identical to a sequential run.
func Generate(ds *metrics.Dataset, abnormal, normal *metrics.Region, p Params) ([]Predicate, error) {
	return GenerateCtx(context.Background(), ds, abnormal, normal, p)
}

// GenerateCtx is Generate with cooperative cancellation: the
// per-attribute passes check ctx between attributes and return
// ctx.Err() promptly once it fires, discarding partial results. An
// uncancelled call is byte-identical to Generate (a non-cancellable ctx
// costs nothing on the hot path). It runs Algorithm 1 through a
// throwaway evaluator; callers that go on to score predicates or rank
// models against the same context keep the evaluator instead (see
// Evaluator.Generate).
func GenerateCtx(ctx context.Context, ds *metrics.Dataset, abnormal, normal *metrics.Region, p Params) ([]Predicate, error) {
	e, err := NewEvaluator(ctx, ds, abnormal, normal, p, nil)
	if err != nil {
		return nil, err
	}
	return e.Generate(ctx, nil)
}

// Generate finishes Algorithm 1 over the spaces NewEvaluator built —
// gap filling (step 4) and the normalized-difference check and
// predicate extraction (step 5) — with GenerateCtx's output,
// cancellation and tracing (tr, nil-safe). The built spaces are shared,
// so gap filling rewrites a scratch copy of each numeric space's labels
// and the evaluator is left unchanged. It runs on the calling
// goroutine, checking ctx between attributes: the work per attribute is
// too small to pay for a second fan-out after construction's.
func (e *Evaluator) Generate(ctx context.Context, tr *obs.Trace) ([]Predicate, error) {
	sc := getScratch()
	defer putScratch(sc)
	done := ctx.Done()
	var out []Predicate
	for i := range e.slots {
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
		var pred Predicate
		var ok bool
		if s := &e.slots[i]; s.num != nil {
			pred, ok = e.extractNumeric(s, sc, tr)
		} else if s.cat != nil {
			pred, ok = extractCategorical(s.cat, tr)
		}
		if ok {
			out = append(out, pred)
		}
	}
	tr.Count(obs.CounterAttributes, len(e.slots))
	tr.Count(obs.CounterPredicatesKept, len(out))
	return out, nil
}

func (e *Evaluator) extractNumeric(s *slot, sc *scratch, tr *obs.Trace) (Predicate, bool) {
	// The built space is shared, so gap filling rewrites a stack view
	// over a scratch copy of its labels (DESIGN.md §10).
	view := *s.num
	view.Labels = sc.labelCopy(view.Labels)
	if !e.p.DisableGapFilling {
		start := tr.Start()
		view.fillGaps(e.p.Delta, s.muN, sc)
		tr.EndStage(obs.StageGapFill, start)
	}

	// Normalized mean-difference threshold (Section 4.5, Equation 2) in
	// closed form: Equation 2 averages (v-Min)/(Max-Min) over each
	// region, which equals (rawMean-Min)/(Max-Min), so the normalized
	// difference is (muA-muN)/(Max-Min) from the raw region means — no
	// row-length normalized copy of the column is ever materialized.
	start := tr.Start()
	defer tr.EndStage(obs.StageExtract, start)
	if math.IsNaN(s.muA) || math.IsNaN(s.muN) || math.Abs((s.muA-s.muN)/(view.Max-view.Min)) <= e.p.Theta {
		return Predicate{}, false
	}

	first, last, ok := view.AbnormalBlock()
	if !ok {
		return Predicate{}, false
	}
	pred := Predicate{Attr: view.Attr, Type: metrics.Numeric}
	if first > 0 {
		lb, _ := view.Bounds(first)
		pred.HasLower = true
		pred.Lower = lb
	}
	if last < view.R-1 {
		_, ub := view.Bounds(last)
		pred.HasUpper = true
		pred.Upper = ub
	}
	if !pred.HasLower && !pred.HasUpper {
		// The whole domain is abnormal: no discriminating predicate.
		return Predicate{}, false
	}
	return pred, true
}

func extractCategorical(cs *CategoricalSpace, tr *obs.Trace) (Predicate, bool) {
	start := tr.Start()
	defer tr.EndStage(obs.StageExtract, start)
	values := cs.AbnormalValues()
	if len(values) == 0 {
		return Predicate{}, false
	}
	pred := Predicate{Attr: cs.Attr, Type: metrics.Categorical, Categories: values}
	sortCategories(&pred)
	return pred, true
}

// meanOf finishes a fused kernel sum: NaN for an empty region, sum/n
// otherwise (the division refRegionMean in golden_ref_test.go applies).
func meanOf(sum float64, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
