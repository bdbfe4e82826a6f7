// Package core implements DBSherlock's predicate-generation algorithm
// (paper Sections 3 and 4): given the timestamp-aligned statistics table
// and user-specified abnormal and normal regions, it produces a conjunct
// of simple predicates with high separation power via the five steps of
// Algorithm 1 — partition-space creation, labeling, filtering,
// gap-filling, and predicate extraction.
package core

import (
	"slices"
	"strconv"
	"strings"

	"dbsherlock/internal/metrics"
)

// Predicate is one simple predicate over an attribute, in one of the
// paper's forms: Attr < x, Attr > x, x < Attr < y, or
// Attr IN {c1, ..., cl} for categorical attributes.
type Predicate struct {
	Attr string
	Type metrics.Type

	// Numeric bounds (open interval; the paper's predicates are strict
	// inequalities). HasLower/HasUpper select the form.
	HasLower bool
	HasUpper bool
	Lower    float64
	Upper    float64

	// Categories holds the abnormal category values (sorted) for
	// categorical predicates.
	Categories []string
}

// MatchesNumeric reports whether a numeric value satisfies the predicate.
func (p Predicate) MatchesNumeric(v float64) bool {
	if p.Type != metrics.Numeric {
		return false
	}
	if p.HasLower && !(v > p.Lower) {
		return false
	}
	if p.HasUpper && !(v < p.Upper) {
		return false
	}
	return p.HasLower || p.HasUpper
}

// MatchesCategorical reports whether a categorical value satisfies the
// predicate.
func (p Predicate) MatchesCategorical(v string) bool {
	if p.Type != metrics.Categorical {
		return false
	}
	for _, c := range p.Categories {
		if c == v {
			return true
		}
	}
	return false
}

// MatchesRow reports whether row i of the dataset satisfies the
// predicate. Rows missing the attribute do not match.
func (p Predicate) MatchesRow(ds *metrics.Dataset, i int) bool {
	col, ok := ds.Column(p.Attr)
	if !ok || col.Attr.Type != p.Type {
		return false
	}
	if p.Type == metrics.Numeric {
		return p.MatchesNumeric(col.Num[i])
	}
	return p.MatchesCategorical(col.Cat[i])
}

// String renders the predicate in the paper's notation, bounds as
// fmt's %.4g renders them (strconv's 'g' format at precision 4).
func (p Predicate) String() string {
	var buf [64]byte
	b := buf[:0]
	switch {
	case p.Type == metrics.Categorical:
		return p.Attr + " ∈ {" + strings.Join(p.Categories, ", ") + "}"
	case p.HasLower && p.HasUpper:
		b = strconv.AppendFloat(b, p.Lower, 'g', 4, 64)
		b = append(b, " < "...)
		b = append(b, p.Attr...)
		b = append(b, " < "...)
		b = strconv.AppendFloat(b, p.Upper, 'g', 4, 64)
	case p.HasLower:
		b = append(b, p.Attr...)
		b = append(b, " > "...)
		b = strconv.AppendFloat(b, p.Lower, 'g', 4, 64)
	case p.HasUpper:
		b = append(b, p.Attr...)
		b = append(b, " < "...)
		b = strconv.AppendFloat(b, p.Upper, 'g', 4, 64)
	default:
		return p.Attr + " (empty predicate)"
	}
	return string(b)
}

// SeparationPower computes Equation (1): the fraction of abnormal-region
// tuples satisfying the predicate minus the fraction of normal-region
// tuples satisfying it.
func SeparationPower(p Predicate, ds *metrics.Dataset, abnormal, normal *metrics.Region) float64 {
	if abnormal.Count() == 0 || normal.Count() == 0 {
		return 0
	}
	// Resolve the column once instead of per row, and walk the regions'
	// contiguous runs instead of materializing index slices.
	col, ok := ds.Column(p.Attr)
	if !ok || col.Attr.Type != p.Type {
		return 0 // no row can match a missing/mistyped attribute
	}
	count := func(r *metrics.Region) int {
		var hits int
		if p.Type == metrics.Numeric {
			r.Runs(func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if p.MatchesNumeric(col.Num[i]) {
						hits++
					}
				}
			})
		} else {
			r.Runs(func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if p.MatchesCategorical(col.Cat[i]) {
						hits++
					}
				}
			})
		}
		return hits
	}
	inA, inN := count(abnormal), count(normal)
	return float64(inA)/float64(abnormal.Count()) - float64(inN)/float64(normal.Count())
}

// SeparationPower is the package-level SeparationPower against the
// evaluator's dataset and regions: the same per-row matching in the
// same visit order, over the run lists and row counts NewEvaluator
// kept, so scoring every candidate of a diagnosis re-scans no region
// membership.
func (e *Evaluator) SeparationPower(p Predicate) float64 {
	col, ok := e.ds.Column(p.Attr)
	if !ok || col.Attr.Type != p.Type {
		return 0
	}
	count := func(runs []int32) int {
		var hits int
		if p.Type == metrics.Numeric {
			limit := len(col.Num)
			for k := 0; k+1 < len(runs); k += 2 {
				lo, hi := int(runs[k]), int(runs[k+1])
				if hi > limit {
					hi = limit
				}
				for i := lo; i < hi; i++ {
					if p.MatchesNumeric(col.Num[i]) {
						hits++
					}
				}
			}
			return hits
		}
		limit := len(col.Cat)
		for k := 0; k+1 < len(runs); k += 2 {
			lo, hi := int(runs[k]), int(runs[k+1])
			if hi > limit {
				hi = limit
			}
			for i := lo; i < hi; i++ {
				if p.MatchesCategorical(col.Cat[i]) {
					hits++
				}
			}
		}
		return hits
	}
	inA, inN := count(e.aRuns), count(e.nRuns)
	return float64(inA)/float64(e.cntA) - float64(inN)/float64(e.cntN)
}

// MatchesAll reports whether row i satisfies every predicate in the
// conjunct (the paper returns a conjunction of simple predicates).
func MatchesAll(preds []Predicate, ds *metrics.Dataset, i int) bool {
	for _, p := range preds {
		if !p.MatchesRow(ds, i) {
			return false
		}
	}
	return len(preds) > 0
}

// sortCategories normalizes a categorical predicate's value order.
func sortCategories(p *Predicate) {
	slices.Sort(p.Categories)
}
