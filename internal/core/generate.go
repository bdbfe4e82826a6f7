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
	// space construction and per-model ranking. Zero (the default) and
	// negative values size the pool to runtime.GOMAXPROCS; 1 forces the
	// sequential path. Parallel and sequential runs produce
	// byte-identical results: attributes are processed independently and
	// collected by index.
	Workers int

	// Ablation switches for the step-contribution experiment
	// (Table 6, Appendix D). Production use leaves them false.
	DisableFiltering  bool
	DisableGapFilling bool

	// Trace, when non-nil, accumulates per-stage wall time and work
	// counts for this diagnosis (see internal/obs). Nil — the default —
	// disables tracing at zero allocation cost on the hot path.
	Trace *obs.Trace
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
// power, in dataset column order. Attributes are independent, so the
// per-attribute work (partition-space construction, filtering,
// gap-filling, predicate extraction) fans out across a bounded worker
// pool sized by p.Workers; results are collected by attribute index, so
// the output is byte-identical to a sequential run.
func Generate(ds *metrics.Dataset, abnormal, normal *metrics.Region, p Params) ([]Predicate, error) {
	return GenerateCtx(context.Background(), ds, abnormal, normal, p)
}

// GenerateCtx is Generate with cooperative cancellation: the
// per-attribute fan-out checks ctx between attributes and returns
// ctx.Err() promptly once it fires, discarding partial results. An
// uncancelled call is byte-identical to Generate (a non-cancellable ctx
// costs nothing on the hot path). It runs Algorithm 1 through a
// throwaway evaluator; callers that go on to score predicates or rank
// models against the same context keep the evaluator instead (see
// Evaluator.Generate).
func GenerateCtx(ctx context.Context, ds *metrics.Dataset, abnormal, normal *metrics.Region, p Params) ([]Predicate, error) {
	return NewEvaluator(ds, abnormal, normal, p).Generate(ctx, p.Trace)
}

// Generate runs Algorithm 1 over the evaluator's dataset and regions,
// with GenerateCtx's output, cancellation and tracing (tr, nil-safe),
// and stores every attribute's partition space as it goes, so scoring
// and ranking against the evaluator afterwards build nothing. Each
// numeric space is stored right after filtering: the evaluator takes
// the labels Algorithm 1 built, and gap filling and extraction run on a
// scratch copy of them. tr counts each stored space as spaces_built.
func (e *Evaluator) Generate(ctx context.Context, tr *obs.Trace) ([]Predicate, error) {
	ds, abnormal, normal := e.ds, e.abnormal, e.normal
	if err := e.p.Validate(); err != nil {
		return nil, err
	}
	if ds == nil || ds.Rows() == 0 {
		return nil, errors.New("core: empty dataset")
	}
	if abnormal == nil || abnormal.Empty() {
		return nil, errors.New("core: abnormal region is empty")
	}
	if normal == nil || normal.Empty() {
		return nil, errors.New("core: normal region is empty")
	}
	if abnormal.Intersects(normal) {
		return nil, errors.New("core: abnormal and normal regions overlap")
	}

	type candidate struct {
		pred Predicate
		ok   bool
	}
	n := len(e.slots)
	results := make([]candidate, n)
	workers := ResolveWorkers(e.p.Workers)
	// One scratch arena per worker slot: the per-attribute buffers
	// (membership bitsets, label snapshots, category counters) are reused
	// across all ~R attributes a slot processes instead of reallocated.
	scratches := make([]*scratch, EffectiveWorkers(n, workers))
	for i := range scratches {
		scratches[i] = getScratch()
	}
	err := ForEachWorkerCtx(ctx, n, workers, func(w, i int) {
		col := ds.ColumnAt(i)
		switch col.Attr.Type {
		case metrics.Numeric:
			results[i].pred, results[i].ok = e.generateNumeric(i, col, scratches[w], tr)
		case metrics.Categorical:
			results[i].pred, results[i].ok = e.generateCategorical(i, col, scratches[w], tr)
		}
	})
	for _, sc := range scratches {
		putScratch(sc)
	}
	if err != nil {
		return nil, err
	}
	var out []Predicate
	for _, c := range results {
		if c.ok {
			out = append(out, c.pred)
		}
	}
	tr.Count(obs.CounterAttributes, n)
	tr.Count(obs.CounterPredicatesKept, len(out))
	return out, nil
}

func (e *Evaluator) generateNumeric(i int, col metrics.Column, sc *scratch, tr *obs.Trace) (Predicate, bool) {
	ps, muA, muN := e.partitionNumeric(i, col, sc, tr)
	e.store(i, numericSlot(ps), tr)
	if ps == nil {
		return Predicate{}, false
	}
	// The stored space is shared from here on, so gap filling rewrites a
	// stack view over a scratch copy of its labels (DESIGN.md §10).
	view := *ps
	view.Labels = sc.labelCopy(ps.Labels)
	if !e.p.DisableGapFilling {
		start := tr.Start()
		view.fillGaps(e.p.Delta, muN, sc)
		tr.EndStage(obs.StageGapFill, start)
	}

	// Normalized mean-difference threshold (Section 4.5, Equation 2) in
	// closed form: Equation 2 averages (v-Min)/(Max-Min) over each
	// region, which equals (rawMean-Min)/(Max-Min), so the normalized
	// difference is (muA-muN)/(Max-Min) from the raw region means — no
	// row-length normalized copy of the column is ever materialized.
	start := tr.Start()
	defer tr.EndStage(obs.StageExtract, start)
	if math.IsNaN(muA) || math.IsNaN(muN) || math.Abs((muA-muN)/(view.Max-view.Min)) <= e.p.Theta {
		return Predicate{}, false
	}

	first, last, ok := view.AbnormalBlock()
	if !ok {
		return Predicate{}, false
	}
	pred := Predicate{Attr: col.Attr.Name, Type: metrics.Numeric}
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

func (e *Evaluator) generateCategorical(i int, col metrics.Column, sc *scratch, tr *obs.Trace) (Predicate, bool) {
	start := tr.Start()
	cs := newCategoricalSpaceIDs(col.Attr.Name, col, e.aRuns, e.nRuns, sc)
	tr.EndStage(obs.StagePartition, start)
	e.store(i, slot{cat: cs, built: true}, tr)
	if cs == nil {
		return Predicate{}, false
	}
	tr.Count(obs.CounterPartitionsCreated, len(cs.Labels))
	start = tr.Start()
	defer tr.EndStage(obs.StageExtract, start)
	values := cs.AbnormalValues()
	if len(values) == 0 {
		return Predicate{}, false
	}
	pred := Predicate{Attr: col.Attr.Name, Type: metrics.Categorical, Categories: values}
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
