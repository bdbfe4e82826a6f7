package dbsherlock

import (
	"dbsherlock/internal/core"
	"dbsherlock/internal/domain"
)

// DiagnosisState is an opaque, reusable snapshot of the expensive
// intermediate state of one diagnosis context: the evaluator holding
// every attribute's partition space (Algorithm 1's labeled and filtered
// domains, stored as Algorithm 1 built them) plus the extracted,
// scored, and pruned predicates. Capture it with
// DiagnoseRequest.CaptureState and hand it back via
// DiagnoseRequest.Reuse on later diagnoses of the same (dataset,
// abnormal region, normal region, parameters) context — the engine then
// skips predicate generation and scoring entirely and ranks causal
// models against the retained spaces, turning a repeat diagnosis into a
// sub-millisecond operation with output identical to a cold run.
//
// A DiagnosisState is immutable, its evaluator included, so one state
// may serve any number of concurrent diagnoses. Reuse is
// validated, not trusted: Diagnose checks the state against the
// request's dataset (pointer identity and generation, so a column added
// since the capture invalidates it), regions (exact row equality),
// parameters, and domain knowledge, and silently falls back to a cold
// run on any mismatch — a stale or mismatched state can cost a cache
// miss but never a wrong answer.
//
// Model ranking is never part of the state: causal models may be
// learned, imported, or deleted between requests, so confidences are
// recomputed live on every call (cheaply, against the cached spaces).
type DiagnosisState struct {
	ev        *core.Evaluator
	gen       uint64 // dataset generation the evaluator was built at
	knowledge *domain.Knowledge
	preds     []Predicate
	ranked    []ScoredPredicate
	pruned    []PrunedPredicate
}

// accepts reports whether the state may serve req, that is whether it
// was captured from an equivalent diagnosis context: same dataset
// instance at the same generation, same resolved regions, same
// generation parameters, and same installed domain knowledge. A nil or
// zero state accepts nothing.
func (st *DiagnosisState) accepts(a *Analyzer, req DiagnoseRequest) bool {
	if st == nil || st.ev == nil || st.ev.Dataset() != req.Dataset || st.gen != req.Dataset.Generation() {
		return false
	}
	if st.ev.Params() != a.params || st.knowledge != a.knowledge {
		return false
	}
	abnormal, normal, err := resolveRegions(req.Dataset, req.Abnormal, req.Normal)
	if err != nil {
		return false
	}
	evA, evN := st.ev.Regions()
	return evA.Equal(abnormal) && evN.Equal(normal)
}

// SizeBytes estimates the retained heap footprint of the state: the
// evaluator's partition spaces and region pins plus the predicate
// slices. Byte-budgeted caches (internal/diagcache) use it for
// accounting; it is safe to call while the state is in concurrent use.
// A captured state already holds every attribute's space, so serving
// later rankings does not change its size.
func (st *DiagnosisState) SizeBytes() int64 {
	if st == nil {
		return 0
	}
	const stateOverhead = 128
	n := st.ev.SizeBytes() + stateOverhead
	for _, p := range st.preds {
		n += predicateSize(p)
	}
	for _, sp := range st.ranked {
		n += predicateSize(sp.Predicate) + 8
	}
	for _, pp := range st.pruned {
		n += predicateSize(pp.Predicate) + 32
	}
	return n
}

// predicateSize estimates one predicate's heap footprint.
func predicateSize(p Predicate) int64 {
	const predOverhead = 64
	const stringOverhead = 16
	n := int64(predOverhead + len(p.Attr))
	for _, c := range p.Categories {
		n += stringOverhead + int64(len(c))
	}
	return n
}

// cloneSlice copies a slice, preserving nil-ness exactly so cached and
// cold diagnosis outputs stay deeply equal.
func cloneSlice[T any](src []T) []T {
	if src == nil {
		return nil
	}
	out := make([]T, len(src))
	copy(out, src)
	return out
}
