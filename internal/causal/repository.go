package causal

import (
	"context"
	"sort"
	"sync"

	"dbsherlock/internal/core"
	"dbsherlock/internal/metrics"
	"dbsherlock/internal/obs"
)

// DefaultLambda is the minimum confidence a cause needs to be shown to
// the user (the paper's default threshold of 20%).
const DefaultLambda = 0.20

// RankedCause is one diagnosis candidate returned by a repository.
type RankedCause struct {
	Cause      string
	Confidence float64
	Model      *Model
}

// Repository holds the causal models accumulated from past diagnoses.
// Models sharing a cause are merged incrementally (Section 6.2), so each
// cause maps to one (possibly merged) model.
//
// A Repository is safe for concurrent use: reads (Model, Causes, Rank,
// Save) take a shared lock, writes (Add, AddRemediation) an exclusive
// one. Stored models are treated as immutable — every write replaces the
// map entry with a fresh model — so the pointers handed out by Model and
// Rank stay consistent snapshots even while new diagnoses arrive.
type Repository struct {
	mu     sync.RWMutex
	models map[string]*Model
	order  []string // insertion order, for deterministic iteration
}

// NewRepository returns an empty model repository.
func NewRepository() *Repository {
	return &Repository{models: make(map[string]*Model)}
}

// Add incorporates a newly diagnosed model. If a model for the same
// cause exists, the two are merged; otherwise the model is stored as-is.
// The repository keeps its own copy, so the caller may keep mutating m.
func (r *Repository) Add(m *Model) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	existing, ok := r.models[m.Cause]
	if !ok {
		r.models[m.Cause] = m.Clone()
		r.order = append(r.order, m.Cause)
		return nil
	}
	merged, err := Merge(existing, m)
	if err != nil {
		return err
	}
	r.models[m.Cause] = merged
	return nil
}

// Set stores m (cloned) as the entry for m.Cause, replacing any
// existing model without merging. It is how store-backed banks hydrate
// and install committed models: Add merges, Set overwrites.
func (r *Repository) Set(m *Model) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[m.Cause]; !ok {
		r.order = append(r.order, m.Cause)
	}
	r.models[m.Cause] = m.Clone()
}

// ReplaceAll swaps the entire contents for the given models (cloned,
// in order; a duplicated cause keeps the later model). Unlike building
// a fresh Repository it preserves the receiver's identity, so handles
// held by derived analyzers keep working across a model import.
func (r *Repository) ReplaceAll(models []*Model) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.models = make(map[string]*Model, len(models))
	r.order = r.order[:0]
	for _, m := range models {
		if _, dup := r.models[m.Cause]; !dup {
			r.order = append(r.order, m.Cause)
		}
		r.models[m.Cause] = m.Clone()
	}
}

// Models returns the stored models in insertion order. The returned
// pointers are the immutable stored snapshots, safe to read but not to
// mutate.
func (r *Repository) Models() []*Model {
	_, models := r.snapshot()
	return models
}

// AddRemediation records a corrective action for a stored cause and
// reports whether the cause is known. Stored models are immutable, so
// the entry is replaced copy-on-write; readers holding the old pointer
// keep a consistent snapshot.
func (r *Repository) AddRemediation(cause, action string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.models[cause]
	if !ok {
		return false
	}
	cp := m.Clone()
	cp.AddRemediation(action)
	r.models[cause] = cp
	return true
}

// Len returns the number of distinct causes known.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}

// Model returns the (merged) model for a cause, or nil. The returned
// model is an immutable snapshot: later writes replace the stored entry
// rather than mutating it.
func (r *Repository) Model(cause string) *Model {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.models[cause]
}

// Causes returns the known causes in insertion order.
func (r *Repository) Causes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// snapshot returns the causes (insertion order) and their models as a
// consistent point-in-time view.
func (r *Repository) snapshot() ([]string, []*Model) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	order := make([]string, len(r.order))
	copy(order, r.order)
	models := make([]*Model, len(order))
	for i, cause := range order {
		models[i] = r.models[cause]
	}
	return order, models
}

// Rank computes every model's confidence for the given anomaly and
// returns all causes in decreasing confidence order (ties broken by
// cause name for determinism). The caller applies a lambda threshold to
// decide what to show; Rank itself returns everything so callers can
// also inspect margins (Section 8.3). Models are scored concurrently
// across p.Workers workers; the result is byte-identical to a
// sequential run because each model's confidence is computed
// independently, collected by index, and sorted deterministically. It
// returns nil for a context core.NewEvaluator rejects.
func (r *Repository) Rank(ds *metrics.Dataset, abnormal, normal *metrics.Region, p core.Params) []RankedCause {
	out, _ := r.RankCtx(context.Background(), ds, abnormal, normal, p)
	return out
}

// RankCtx is Rank with cooperative cancellation and errors: it builds
// the context's evaluator (core.NewEvaluator, which validates the
// regions) and ranks against it, and it returns ctx.Err() with a nil
// slice once ctx fires. An uncancelled call is byte-identical to Rank.
func (r *Repository) RankCtx(ctx context.Context, ds *metrics.Dataset, abnormal, normal *metrics.Region, p core.Params) ([]RankedCause, error) {
	ev, err := core.NewEvaluator(ctx, ds, abnormal, normal, p, nil)
	if err != nil {
		return nil, err
	}
	return r.RankEvalCtx(ctx, ev, nil)
}

// RankEvalCtx is RankCtx against a built evaluator, whose partition
// spaces every model shares and which may outlive this call (the
// diagnosis cache reuses one across requests). Scoring checks ctx
// between models. Stage timings and work counts go to tr (nil-safe),
// which never influences the ranking itself.
func (r *Repository) RankEvalCtx(ctx context.Context, ev *core.Evaluator, tr *obs.Trace) ([]RankedCause, error) {
	order, models := r.snapshot()
	start := tr.Start()
	out := make([]RankedCause, len(models))
	err := core.ForEachCtx(ctx, len(models), core.ResolveWorkers(ev.Params().Workers), func(i int) {
		out[i] = RankedCause{
			Cause:      order[i],
			Confidence: models[i].ConfidenceEval(ev),
			Model:      models[i],
		}
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Cause < out[j].Cause
	})
	tr.EndStage(obs.StageRank, start)
	tr.Count(obs.CounterModelsRanked, len(models))
	return out, nil
}

// Diagnose returns the causes whose confidence exceeds lambda, in
// decreasing confidence order (what DBSherlock shows the user,
// Section 6). With no qualifying model the caller should fall back to
// raw predicates.
func (r *Repository) Diagnose(ds *metrics.Dataset, abnormal, normal *metrics.Region, p core.Params, lambda float64) []RankedCause {
	return FilterByLambda(r.Rank(ds, abnormal, normal, p), lambda)
}

// FilterByLambda keeps the causes whose confidence exceeds lambda,
// preserving order. The result never aliases ranked's backing array.
func FilterByLambda(ranked []RankedCause, lambda float64) []RankedCause {
	out := ranked[:0:0]
	for _, rc := range ranked {
		if rc.Confidence > lambda {
			out = append(out, rc)
		}
	}
	return out
}
