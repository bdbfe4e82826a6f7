// Package causal implements DBSherlock's causal models (paper Section 6):
// a cause label attached to the effect predicates generated during a
// diagnosed anomaly. Models are consulted on future anomalies, ranked by
// a confidence score (Equation 3), and improved by merging models of the
// same cause (Section 6.2).
package causal

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"dbsherlock/internal/core"
	"dbsherlock/internal/metrics"
)

// Model links a user-diagnosed cause to its effect predicates. The cause
// variable is exogenous (Halpern-Pearl style [28]): when true, it
// activates all effect predicates.
type Model struct {
	// Cause is the human-readable root cause ("Log Rotation",
	// "Network Congestion", ...).
	Cause string
	// Predicates are the effect predicates.
	Predicates []core.Predicate
	// Merged counts how many diagnosed datasets contributed to this
	// model (1 for a freshly created model).
	Merged int
	// Remediations records the corrective actions DBAs took when this
	// cause was diagnosed, replayed as suggestions on future
	// occurrences (the paper's Section 10 future work).
	Remediations []string
}

// AddRemediation records a corrective action taken for this cause.
// Duplicates are ignored.
func (m *Model) AddRemediation(action string) {
	for _, r := range m.Remediations {
		if r == action {
			return
		}
	}
	m.Remediations = append(m.Remediations, action)
}

// Clone returns a copy of the model whose slices are independent of the
// original, so a mutation of one cannot be observed through the other.
// (Predicate category slices are shared: they are never mutated after
// construction.)
func (m *Model) Clone() *Model {
	cp := &Model{Cause: m.Cause, Merged: m.Merged}
	if len(m.Predicates) > 0 {
		cp.Predicates = append([]core.Predicate(nil), m.Predicates...)
	}
	if len(m.Remediations) > 0 {
		cp.Remediations = append([]string(nil), m.Remediations...)
	}
	return cp
}

// New creates a causal model from a diagnosis.
func New(cause string, preds []core.Predicate) *Model {
	cp := make([]core.Predicate, len(preds))
	copy(cp, preds)
	return &Model{Cause: cause, Predicates: cp, Merged: 1}
}

// String renders the model as "cause: pred AND pred AND ...".
func (m *Model) String() string {
	parts := make([]string, len(m.Predicates))
	for i, p := range m.Predicates {
		parts[i] = p.String()
	}
	return fmt.Sprintf("%s: %s", m.Cause, strings.Join(parts, " ∧ "))
}

// Confidence computes Equation (3): the average partition-space
// separation power of the model's effect predicates over the given
// anomaly, in [-1, 1]. A model with no predicates, or an anomaly
// context core.NewEvaluator rejects (an empty or overlapping region),
// has zero confidence.
func (m *Model) Confidence(ds *metrics.Dataset, abnormal, normal *metrics.Region, p core.Params) float64 {
	ev, err := core.NewEvaluator(context.Background(), ds, abnormal, normal, p, nil)
	if err != nil {
		return 0
	}
	return m.ConfidenceEval(ev)
}

// ConfidenceEval is Confidence against a built evaluator, letting
// callers that score many models on the same anomaly share its
// partition spaces.
func (m *Model) ConfidenceEval(ev *core.Evaluator) float64 {
	if len(m.Predicates) == 0 {
		return 0
	}
	var sum float64
	for _, pred := range m.Predicates {
		sum += ev.Separation(pred)
	}
	return sum / float64(len(m.Predicates))
}

// TupleConfidence is the Equation (1) variant of Confidence: the average
// tuple-level separation power of the effect predicates. The paper
// deliberately defines confidence over the partition space instead
// (Section 6.1) because raw tuples are noisier; the ablation tests and
// benchmarks compare the two.
func (m *Model) TupleConfidence(ds *metrics.Dataset, abnormal, normal *metrics.Region) float64 {
	if len(m.Predicates) == 0 {
		return 0
	}
	var sum float64
	for _, pred := range m.Predicates {
		sum += core.SeparationPower(pred, ds, abnormal, normal)
	}
	return sum / float64(len(m.Predicates))
}

// Merge combines two models of the same cause (Section 6.2): only
// predicates on attributes common to both survive, and each surviving
// pair is merged so the result covers both originals. Numeric predicates
// with conflicting directions (their union is unbounded) are discarded,
// as are categorical predicates with no common category.
func Merge(a, b *Model) (*Model, error) {
	if a.Cause != b.Cause {
		return nil, fmt.Errorf("causal: cannot merge models with different causes %q and %q", a.Cause, b.Cause)
	}
	byAttr := make(map[string]core.Predicate, len(b.Predicates))
	for _, p := range b.Predicates {
		byAttr[p.Attr] = p
	}
	var merged []core.Predicate
	for _, pa := range a.Predicates {
		pb, ok := byAttr[pa.Attr]
		if !ok || pa.Type != pb.Type {
			continue
		}
		if p, ok := mergePredicates(pa, pb); ok {
			merged = append(merged, p)
		}
	}
	out := &Model{Cause: a.Cause, Predicates: merged, Merged: a.Merged + b.Merged}
	for _, r := range a.Remediations {
		out.AddRemediation(r)
	}
	for _, r := range b.Remediations {
		out.AddRemediation(r)
	}
	return out, nil
}

// mergePredicates merges two predicates on the same attribute into one
// that includes both, per the paper's examples: {A > 10} + {A > 15} ->
// {A > 10}; {C > 20} + {C > 15} -> {C > 15}. A bound survives only if
// both predicates have it (the union is otherwise unbounded on that
// side). ok is false for inconsistent pairs.
func mergePredicates(a, b core.Predicate) (core.Predicate, bool) {
	if a.Type == metrics.Categorical {
		// Following the paper's example, only categories observed in
		// both anomaly instances are kept ({xx,yy,zz} + {xx,zz} ->
		// {xx,zz}); a disjoint pair is inconsistent.
		inB := make(map[string]bool, len(b.Categories))
		for _, c := range b.Categories {
			inB[c] = true
		}
		var common []string
		for _, c := range a.Categories {
			if inB[c] {
				common = append(common, c)
			}
		}
		if len(common) == 0 {
			return core.Predicate{}, false
		}
		sort.Strings(common)
		return core.Predicate{Attr: a.Attr, Type: a.Type, Categories: common}, true
	}

	out := core.Predicate{Attr: a.Attr, Type: a.Type}
	if a.HasLower && b.HasLower {
		out.HasLower = true
		out.Lower = min(a.Lower, b.Lower)
	}
	if a.HasUpper && b.HasUpper {
		out.HasUpper = true
		out.Upper = max(a.Upper, b.Upper)
	}
	if !out.HasLower && !out.HasUpper {
		// e.g. {A > 10} + {A < 30}: different directions, discarded.
		return core.Predicate{}, false
	}
	return out, true
}

// MergeAll folds a list of models of the same cause into one. It returns
// an error on an empty list or mismatched causes.
func MergeAll(models []*Model) (*Model, error) {
	if len(models) == 0 {
		return nil, errors.New("causal: no models to merge")
	}
	acc := models[0]
	for _, m := range models[1:] {
		var err error
		acc, err = Merge(acc, m)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}
