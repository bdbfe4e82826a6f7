// Package dbsherlock is a from-scratch Go reproduction of DBSherlock
// (Yoon, Niu, Mozafari — SIGMOD 2016): a performance diagnostic
// framework for transactional databases. Given per-second OS/DBMS
// statistics and a user-specified abnormal region, it explains the
// anomaly with concise predicates and, once causes have been diagnosed
// and fed back, with ranked human-readable causes backed by causal
// models.
//
// Typical use (Diagnose is the context-first entry point):
//
//	a := dbsherlock.New()
//	res, err := a.Diagnose(ctx, dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abnormalRegion})
//	// ... the DBA inspects res.Explanation.Predicates, identifies the cause ...
//	a.LearnCause("Network Congestion", ds, abnormalRegion, nil)
//	// future anomalies now rank "Network Congestion" by confidence:
//	res, err = a.Diagnose(ctx, dbsherlock.DiagnoseRequest{Dataset: ds2, Abnormal: abnormal2})
//	for _, c := range res.Explanation.Causes { fmt.Println(c.Cause, c.Confidence) }
//
// The package also ships the synthetic OLTP testbed used by the
// reproduction's experiments (see Simulate), an automatic anomaly
// detector (Detect), and domain-knowledge support for pruning secondary
// symptoms.
package dbsherlock

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"dbsherlock/internal/causal"
	"dbsherlock/internal/core"
	"dbsherlock/internal/detect"
	"dbsherlock/internal/domain"
	"dbsherlock/internal/obs"
)

// Analyzer is the top-level diagnostic engine: predicate generation
// parameters, accumulated causal models, and optional domain knowledge.
//
// An Analyzer is safe for concurrent use. Diagnose, Detect,
// RankAllContext, and the model accessors are read-mostly and run in
// parallel with each other; LearnCause, AddModel, RecordRemediation,
// and LoadModels are serialized writes against the RWMutex-guarded
// model repository.
// Parameters and domain knowledge are fixed at construction. The
// per-attribute and per-model hot paths additionally fan out across a
// bounded worker pool (see WithWorkers) with output byte-identical to a
// sequential run.
type Analyzer struct {
	params    core.Params
	knowledge *domain.Knowledge
	lambda    float64
	tracing   bool

	// mu guards the repo pointer (swapped by LoadModels); the Repository
	// itself serializes access to its models.
	mu   sync.RWMutex
	repo *causal.Repository
}

// repository returns the current model repository.
func (a *Analyzer) repository() *causal.Repository {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.repo
}

// Option configures an Analyzer.
type Option func(*Analyzer) error

// New returns an Analyzer with the paper's default parameters
// (R=250, theta=0.2, delta=10, lambda=20%).
func New(opts ...Option) (*Analyzer, error) {
	a := &Analyzer{
		params: core.DefaultParams(),
		repo:   causal.NewRepository(),
		lambda: causal.DefaultLambda,
	}
	for _, opt := range opts {
		if err := opt(a); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(opts ...Option) *Analyzer {
	a, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return a
}

// WithParams replaces the predicate-generation parameters.
func WithParams(p Params) Option {
	return func(a *Analyzer) error {
		if err := p.Validate(); err != nil {
			return err
		}
		a.params = p
		return nil
	}
}

// WithTheta sets the normalized difference threshold (use a low value,
// e.g. 0.05, when the generated models will be merged).
func WithTheta(theta float64) Option {
	return func(a *Analyzer) error {
		if theta < 0 || theta > 1 {
			return errors.New("dbsherlock: theta must be in [0, 1]")
		}
		a.params.Theta = theta
		return nil
	}
}

// WithLambda sets the minimum confidence for a cause to be reported.
func WithLambda(lambda float64) Option {
	return func(a *Analyzer) error {
		if lambda < 0 || lambda > 1 {
			return errors.New("dbsherlock: lambda must be in [0, 1]")
		}
		a.lambda = lambda
		return nil
	}
}

// WithWorkers bounds the worker pool the diagnosis engine fans
// per-attribute partition-space construction, separation-power scoring
// and per-model work (confidence ranking) out across; Algorithm 1's gap
// filling and extraction run on the calling goroutine. n <= 0 — the
// default — sizes the pool to runtime.GOMAXPROCS; 1 forces the
// sequential path. Worker count never changes results: parallel runs
// are byte-identical to sequential ones.
func WithWorkers(n int) Option {
	return func(a *Analyzer) error {
		a.params.Workers = n
		return nil
	}
}

// WithTracing makes every Diagnose record a per-stage diagnosis trace
// (partitioning, filtering, gap filling, predicate extraction, pruning,
// scoring, model ranking — see internal/obs) and attach its snapshot to
// the Explanation. Without this option traces are off and cost nothing:
// the hot path sees a nil trace pointer and skips all instrumentation.
// Callers that want a trace for a single call regardless of this option
// set DiagnoseRequest.Trace.
func WithTracing() Option {
	return func(a *Analyzer) error {
		a.tracing = true
		return nil
	}
}

// WithDomainKnowledge installs secondary-symptom pruning rules
// (Section 5 of the paper). Rules are validated: a rule and its reverse
// cannot coexist.
func WithDomainKnowledge(rules []Rule) Option {
	return func(a *Analyzer) error {
		k, err := domain.NewKnowledge(rules)
		if err != nil {
			return err
		}
		a.knowledge = k
		return nil
	}
}

// Params returns the analyzer's current predicate-generation parameters.
func (a *Analyzer) Params() Params { return a.params }

// Prewarm builds the prepared per-column index for ds under this
// analyzer's partition count, so the first Diagnose against the dataset
// skips the min/max/bucketing pass and starts from the counting kernels.
// The index lives on the dataset and is freed with it; every analyzer
// with the same partition count shares it, and a dataset mutation drops
// it. It is cheap to call redundantly: a dataset whose columns have not
// changed since the last Prewarm already holds its index and no work is
// done. Safe for concurrent use.
func (a *Analyzer) Prewarm(ds *Dataset) {
	core.PreparedFor(ds, a.params.NumPartitions)
}

// Explanation is the output of a diagnosis: the generated predicates
// (secondary symptoms already pruned if domain knowledge is installed)
// and, when causal models exist, the causes whose confidence clears
// lambda, in decreasing order.
type Explanation struct {
	// Predicates is the conjunct of simple predicates explaining the
	// anomaly, in dataset column order.
	Predicates []Predicate
	// Ranked holds the same predicates ordered by decreasing separation
	// power (Equation 1) — the order a user should read them in.
	Ranked []ScoredPredicate
	// Pruned reports predicates removed as secondary symptoms.
	Pruned []PrunedPredicate
	// Causes are the qualifying causal-model diagnoses (may be empty:
	// fall back to Predicates).
	Causes []RankedCause
	// Trace is the per-stage diagnosis trace, non-nil only when tracing
	// was enabled (WithTracing or DiagnoseRequest.Trace).
	Trace *TraceSnapshot
}

// ScoredPredicate pairs a predicate with its separation power on the
// diagnosed data.
type ScoredPredicate struct {
	Predicate Predicate
	// SeparationPower is Equation (1) evaluated on the diagnosis
	// regions, in [-1, 1].
	SeparationPower float64
}

// resolveRegions applies the paper's convention: a nil normal region
// means every row outside the abnormal region is implicitly normal.
func resolveRegions(ds *Dataset, abnormal, normal *Region) (*Region, *Region, error) {
	if ds == nil {
		return nil, nil, errors.New("dbsherlock: nil dataset")
	}
	if abnormal == nil || abnormal.Empty() {
		return nil, nil, errors.New("dbsherlock: abnormal region must be non-empty")
	}
	if normal == nil {
		normal = abnormal.Complement()
	}
	return abnormal, normal, nil
}

// DiagnoseRequest is the input of Diagnose, the context-first entry
// point of the diagnosis engine.
type DiagnoseRequest struct {
	// Dataset is the statistics table to diagnose. Required.
	Dataset *Dataset
	// Abnormal selects the anomalous rows. Required and non-empty.
	Abnormal *Region
	// Normal selects the comparison rows; nil means every row outside
	// Abnormal (the paper's convention).
	Normal *Region
	// Trace forces a per-stage diagnosis trace for this call, regardless
	// of the WithTracing option.
	Trace bool
	// Timeout, when positive, bounds this call: the engine returns
	// context.DeadlineExceeded once it expires, even if the parent
	// context has no deadline.
	Timeout time.Duration
	// Reuse, when non-nil, offers a DiagnosisState captured by an
	// earlier Diagnose of the same context. If it matches this request
	// (same dataset instance and generation, regions, parameters, and
	// domain knowledge) the engine skips predicate generation and
	// scoring and only re-ranks causal models against the retained
	// partition spaces; on any mismatch it silently runs cold. Output
	// is identical either way.
	Reuse *DiagnosisState
	// CaptureState asks the engine to return a reusable DiagnosisState
	// in DiagnoseResult.State (it is also returned whenever Reuse was
	// accepted). Capturing costs a few small copies plus keeping the
	// evaluator's partition spaces alive — every attribute's, since
	// Algorithm 1 stores each space it builds; leave it off for
	// one-shot diagnoses.
	CaptureState bool
}

// DiagnoseResult is the output of Diagnose: the full explanation, the
// complete model ranking, and the trace snapshot when tracing was
// requested.
type DiagnoseResult struct {
	// Explanation carries the generated predicates, their
	// separation-power ranking, pruned secondary symptoms, and the causes
	// whose confidence clears lambda.
	Explanation *Explanation
	// AllCauses ranks every known causal model by confidence without
	// applying the lambda threshold (RankAllContext semantics), so
	// callers can inspect margins.
	AllCauses []RankedCause
	// Trace is the per-stage diagnosis trace, non-nil only when tracing
	// was requested (DiagnoseRequest.Trace or WithTracing).
	Trace *TraceSnapshot
	// State is the reusable diagnosis state for this context, non-nil
	// only when DiagnoseRequest.CaptureState was set or Reuse was
	// accepted. Hand it back via DiagnoseRequest.Reuse to skip
	// Algorithm 1 on the next diagnosis of the same incident.
	State *DiagnosisState
}

// Diagnose runs one full diagnosis under a context: it generates
// predicates with high separation power (Algorithm 1), prunes secondary
// symptoms if domain knowledge is installed, and ranks every known
// causal model by confidence (Equation 3).
//
// Cancellation is cooperative and prompt: the engine checks ctx between
// per-attribute and per-model work items and returns ctx.Err() without
// finishing the pass. An uncancelled call's output does not depend on
// the context.
func (a *Analyzer) Diagnose(ctx context.Context, req DiagnoseRequest) (*DiagnoseResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Timeout)
		defer cancel()
	}
	var tr *obs.Trace
	if req.Trace || a.tracing {
		tr = obs.NewTrace(core.ResolveWorkers(a.params.Workers))
	}
	var expl *Explanation
	var ev *core.Evaluator
	state := req.Reuse
	if state.accepts(a, req) {
		// Copy the captured predicates out, so callers can never corrupt
		// the shared state.
		expl = &Explanation{
			Predicates: cloneSlice(state.preds),
			Ranked:     cloneSlice(state.ranked),
			Pruned:     cloneSlice(state.pruned),
		}
		ev = state.ev
	} else {
		// No state, or a mismatched or unresolvable one: run cold (which
		// reports a resolve error properly).
		var err error
		if expl, ev, err = a.explainCtx(ctx, req.Dataset, req.Abnormal, req.Normal, tr); err != nil {
			return nil, err
		}
		state = nil
		if req.CaptureState || req.Reuse != nil {
			state = &DiagnosisState{
				ev:        ev,
				gen:       req.Dataset.Generation(),
				knowledge: a.knowledge,
				preds:     cloneSlice(expl.Predicates),
				ranked:    cloneSlice(expl.Ranked),
				pruned:    cloneSlice(expl.Pruned),
			}
		}
	}
	// Models are never part of the state: they are read from the live
	// repository, so learns and imports between requests always rank.
	ranked := []RankedCause{}
	if repo := a.repository(); repo.Len() > 0 {
		var err error
		if ranked, err = repo.RankEvalCtx(ctx, ev, tr); err != nil {
			return nil, err
		}
		expl.Causes = causal.FilterByLambda(ranked, a.lambda)
	}
	res := &DiagnoseResult{Explanation: expl, AllCauses: ranked, State: state}
	if tr != nil {
		expl.Trace = tr.Snapshot()
		res.Trace = expl.Trace
	}
	return res, nil
}

// explainCtx is the cold half of Diagnose: Algorithm 1, domain-knowledge
// pruning and separation-power scoring. It returns the explanation
// without causes and the trace-free evaluator, holding every
// attribute's partition space, that the causal models are ranked
// against. ctx errors are returned unwrapped so callers can match them
// with errors.Is.
func (a *Analyzer) explainCtx(ctx context.Context, ds *Dataset, abnormal, normal *Region, tr *obs.Trace) (*Explanation, *core.Evaluator, error) {
	abnormal, normal, err := resolveRegions(ds, abnormal, normal)
	if err != nil {
		return nil, nil, err
	}
	ev, err := core.NewEvaluator(ctx, ds, abnormal, normal, a.params, tr)
	if err != nil {
		return nil, nil, engineErr(ctx, err)
	}
	preds, err := ev.Generate(ctx, tr)
	if err != nil {
		return nil, nil, err
	}
	expl := &Explanation{Predicates: preds}
	if a.knowledge != nil {
		start := tr.Start()
		expl.Predicates, expl.Pruned = a.knowledge.Apply(preds, ds)
		tr.EndStage(obs.StagePrune, start)
		tr.Count(obs.CounterPredicatesPruned, len(expl.Pruned))
	}
	start := tr.Start()
	expl.Ranked = make([]ScoredPredicate, len(expl.Predicates))
	if err := core.ForEachCtx(ctx, len(expl.Predicates), core.ResolveWorkers(a.params.Workers), func(i int) {
		p := expl.Predicates[i]
		expl.Ranked[i] = ScoredPredicate{Predicate: p, SeparationPower: ev.SeparationPower(p)}
	}); err != nil {
		return nil, nil, err
	}
	// Stable descending sort, identical ordering to the former
	// sort.SliceStable but without the reflect-based swapper.
	slices.SortStableFunc(expl.Ranked, func(a, b ScoredPredicate) int {
		switch {
		case a.SeparationPower > b.SeparationPower:
			return -1
		case a.SeparationPower < b.SeparationPower:
			return 1
		default:
			return 0
		}
	})
	tr.EndStage(obs.StageScore, start)
	return expl, ev, nil
}

// LearnCause incorporates user feedback: it generates predicates for
// the diagnosed anomaly, labels them with the confirmed cause, and adds
// the resulting causal model to the repository (merging with any
// existing model of the same cause, Section 6.2). The new or merged
// model is returned. It is LearnCauseContext with a background context.
func (a *Analyzer) LearnCause(cause string, ds *Dataset, abnormal, normal *Region) (*CausalModel, error) {
	return a.LearnCauseContext(context.Background(), cause, ds, abnormal, normal)
}

// LearnCauseContext is LearnCause under a context: predicate generation
// checks ctx between attributes and returns ctx.Err() promptly once it
// fires, leaving the model repository untouched.
func (a *Analyzer) LearnCauseContext(ctx context.Context, cause string, ds *Dataset, abnormal, normal *Region) (*CausalModel, error) {
	if cause == "" {
		return nil, errors.New("dbsherlock: cause must be non-empty")
	}
	abnormal, normal, err := resolveRegions(ds, abnormal, normal)
	if err != nil {
		return nil, err
	}
	preds, err := core.GenerateCtx(ctx, ds, abnormal, normal, a.params)
	if err != nil {
		return nil, engineErr(ctx, err)
	}
	if a.knowledge != nil {
		preds, _ = a.knowledge.Apply(preds, ds)
	}
	repo := a.repository()
	if err := repo.Add(causal.New(cause, preds)); err != nil {
		return nil, err
	}
	return repo.Model(cause), nil
}

// AddModel installs an externally built causal model (merging with any
// existing model of the same cause). The repository keeps its own copy.
func (a *Analyzer) AddModel(m *CausalModel) error { return a.repository().Add(m) }

// Model returns the (merged) causal model for a cause, or nil. The
// returned model is an immutable snapshot: later learning replaces the
// stored model rather than mutating it.
func (a *Analyzer) Model(cause string) *CausalModel { return a.repository().Model(cause) }

// Causes lists the known causes in the order they were first learned.
func (a *Analyzer) Causes() []string { return a.repository().Causes() }

// RankAllContext computes every known model's confidence for the given
// anomaly without applying the lambda threshold (useful for inspecting
// margins) — DiagnoseResult.AllCauses without predicate extraction. It
// validates the regions and builds every attribute's partition space
// as Diagnose does; construction and model scoring check ctx between
// work items and return ctx.Err() promptly once it fires.
func (a *Analyzer) RankAllContext(ctx context.Context, ds *Dataset, abnormal, normal *Region) ([]RankedCause, error) {
	abnormal, normal, err := resolveRegions(ds, abnormal, normal)
	if err != nil {
		return nil, err
	}
	ranked, err := a.repository().RankCtx(ctx, ds, abnormal, normal, a.params)
	if err != nil {
		return nil, engineErr(ctx, err)
	}
	return ranked, nil
}

// engineErr reports a diagnosis-engine failure: ctx's own error,
// unwrapped so callers can match it with errors.Is, once ctx has fired,
// and the engine's error under the package prefix otherwise.
func engineErr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("dbsherlock: %w", err)
}

// DetectResult is the outcome of automatic anomaly detection.
type DetectResult struct {
	// Abnormal selects the rows the detector flags.
	Abnormal *Region
	// SelectedAttrs are the attributes whose potential power exceeded
	// the threshold.
	SelectedAttrs []string
}

// Detect runs the paper's automatic anomaly detection (Section 7):
// attributes with abrupt sustained changes are selected by potential
// power, rows are clustered with DBSCAN, and small clusters are flagged
// as the anomaly. Use it when the user cannot pinpoint the anomaly
// visually; feed the result's Abnormal region to Diagnose. It is
// DetectContext with a background context.
func (a *Analyzer) Detect(ds *Dataset) (*DetectResult, error) {
	return a.DetectContext(context.Background(), ds)
}

// DetectContext is Detect under a context: the per-attribute
// potential-power passes and the clustering stages check ctx and return
// ctx.Err() promptly once it fires.
func (a *Analyzer) DetectContext(ctx context.Context, ds *Dataset) (*DetectResult, error) {
	if ds == nil {
		return nil, errors.New("dbsherlock: nil dataset")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := detect.DetectCtx(ctx, ds, detect.DefaultParams())
	if err != nil {
		return nil, err
	}
	return &DetectResult{Abnormal: res.Abnormal, SelectedAttrs: res.SelectedAttrs}, nil
}
