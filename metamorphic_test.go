package dbsherlock_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dbsherlock"
)

// Metamorphic properties of the diagnosis, derived from the paper rather
// than from an earlier run of this code:
//
//   - Algorithm 1 (§4) builds, filters and gap-fills one partition space
//     per attribute and checks Equation 2 on that attribute's own
//     normalized region means, so no step reads another column. Equation
//     1 and Equation 3 score a predicate against its own attribute's
//     rows or partition space. Permuting the dataset's columns therefore
//     changes no predicate, no separation power and no confidence.
//   - Multiplying a column by 2^k is exact in floating point while the
//     values stay normal. The equi-width partitions of §4.1 span
//     [min, max], so every value keeps its partition, every label stays,
//     and the region means scale by 2^k. Equation 2 divides their
//     difference by max − min, so the θ check reads the same ratio, and
//     the extracted bounds are the scaled partition bounds. A predicate
//     holds on 2^k·v exactly when the unscaled one holds on v, so
//     separation powers do not move either.

// metamorphicTraces simulates every anomaly kind at seeds 1-3.
func metamorphicTraces(t *testing.T, fn func(name string, ds *dbsherlock.Dataset, abn *dbsherlock.Region)) {
	t.Helper()
	for _, kind := range dbsherlock.AnomalyKinds() {
		for seed := int64(1); seed <= 3; seed++ {
			ds, abn := simulateAnomaly(t, kind, seed)
			fn(fmt.Sprintf("%s/seed=%d", kind, seed), ds, abn)
		}
	}
}

// rebuildDataset copies ds with its columns in the given order, each
// numeric column multiplied by scale[index] when one is set.
func rebuildDataset(t *testing.T, ds *dbsherlock.Dataset, order []int, scale map[int]float64) *dbsherlock.Dataset {
	t.Helper()
	out, err := dbsherlock.NewDataset(ds.Timestamps())
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range order {
		col := ds.ColumnAt(i)
		if col.Num == nil {
			err = out.AddCategorical(col.Attr.Name, col.Cat)
		} else {
			vals := append([]float64(nil), col.Num...)
			if f, ok := scale[i]; ok {
				for r := range vals {
					vals[r] *= f
				}
			}
			err = out.AddNumeric(col.Attr.Name, vals)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// diagnoseMetamorphic diagnoses one trace, failing the test on error.
func diagnoseMetamorphic(t *testing.T, a *dbsherlock.Analyzer, ds *dbsherlock.Dataset, abn *dbsherlock.Region) *dbsherlock.DiagnoseResult {
	t.Helper()
	res, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// byAttr keys an explanation's predicates and separation powers by
// attribute. The Ranked order breaks separation ties by column order,
// so only the keyed view is invariant under a permutation.
func byAttr(t *testing.T, expl *dbsherlock.Explanation) (map[string]dbsherlock.Predicate, map[string]float64) {
	t.Helper()
	preds := make(map[string]dbsherlock.Predicate, len(expl.Predicates))
	for _, p := range expl.Predicates {
		if _, dup := preds[p.Attr]; dup {
			t.Fatalf("two predicates on %s", p.Attr)
		}
		preds[p.Attr] = p
	}
	power := make(map[string]float64, len(expl.Ranked))
	for _, sp := range expl.Ranked {
		power[sp.Predicate.Attr] = sp.SeparationPower
	}
	return preds, power
}

// samePredicate compares two predicates with numeric bounds bit for bit.
func samePredicate(a, b dbsherlock.Predicate) bool {
	return a.Attr == b.Attr && a.Type == b.Type &&
		a.HasLower == b.HasLower && math.Float64bits(a.Lower) == math.Float64bits(b.Lower) &&
		a.HasUpper == b.HasUpper && math.Float64bits(a.Upper) == math.Float64bits(b.Upper) &&
		reflect.DeepEqual(a.Categories, b.Categories)
}

// comparePowers requires the same attributes with bit-identical
// separation powers.
func comparePowers(t *testing.T, name string, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d ranked predicates, want %d", name, len(got), len(want))
	}
	for attr, w := range want {
		if g, ok := got[attr]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: separation power of %s = %v (present %v), want %v", name, attr, g, ok, w)
		}
	}
}

// TestMetamorphicColumnPermutation: diagnosing a dataset whose columns
// are permuted yields the same predicates, the same separation powers
// and, against the same causal models, the same confidence for every
// cause, bit for bit.
func TestMetamorphicColumnPermutation(t *testing.T) {
	a := dbsherlock.MustNew(dbsherlock.WithTheta(0.05))
	for _, kind := range dbsherlock.AnomalyKinds() {
		ds, abn := simulateAnomaly(t, kind, 10)
		if _, err := a.LearnCause(kind.String(), ds, abn, nil); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(21))
	metamorphicTraces(t, func(name string, ds *dbsherlock.Dataset, abn *dbsherlock.Region) {
		base := diagnoseMetamorphic(t, a, ds, abn)
		wantPreds, wantPower := byAttr(t, base.Explanation)
		if len(wantPreds) == 0 || len(base.AllCauses) != len(dbsherlock.AnomalyKinds()) {
			t.Fatalf("%s: %d predicates and %d ranked causes; the testbed is miswired", name, len(wantPreds), len(base.AllCauses))
		}
		wantConf := make(map[string]float64, len(base.AllCauses))
		for _, c := range base.AllCauses {
			wantConf[c.Cause] = c.Confidence
		}
		reversed := make([]int, ds.NumAttrs())
		for i := range reversed {
			reversed[i] = len(reversed) - 1 - i
		}
		for _, order := range [][]int{reversed, rng.Perm(ds.NumAttrs())} {
			res := diagnoseMetamorphic(t, a, rebuildDataset(t, ds, order, nil), abn)
			gotPreds, gotPower := byAttr(t, res.Explanation)
			if len(gotPreds) != len(wantPreds) {
				t.Errorf("%s: %d predicates after permuting, want %d", name, len(gotPreds), len(wantPreds))
			}
			for attr, w := range wantPreds {
				if g, ok := gotPreds[attr]; !ok || !samePredicate(g, w) {
					t.Errorf("%s: predicate on %s = %v (present %v), want %v", name, attr, g, ok, w)
				}
			}
			comparePowers(t, name, gotPower, wantPower)
			if len(res.AllCauses) != len(wantConf) {
				t.Errorf("%s: %d ranked causes, want %d", name, len(res.AllCauses), len(wantConf))
			}
			for _, c := range res.AllCauses {
				if w, ok := wantConf[c.Cause]; !ok || math.Float64bits(c.Confidence) != math.Float64bits(w) {
					t.Errorf("%s: confidence of %s = %v, want %v", name, c.Cause, c.Confidence, w)
				}
			}
		}
	})
}

// TestMetamorphicPowerOfTwoScaling: multiplying one numeric column by
// 2^k (k = 3, -3, 10) multiplies the bounds of that column's predicate
// by exactly 2^k and changes no other predicate and no separation
// power. It runs without causal models, whose learned thresholds are
// not scaled.
func TestMetamorphicPowerOfTwoScaling(t *testing.T) {
	a := dbsherlock.MustNew()
	metamorphicTraces(t, func(name string, ds *dbsherlock.Dataset, abn *dbsherlock.Region) {
		base := diagnoseMetamorphic(t, a, ds, abn)
		wantPreds, wantPower := byAttr(t, base.Explanation)
		order := make([]int, ds.NumAttrs())
		for i := range order {
			order[i] = i
		}
		scaled := 0
		for i := 0; i < ds.NumAttrs() && scaled < 5; i++ {
			col := ds.ColumnAt(i)
			if _, ok := wantPreds[col.Attr.Name]; !ok || col.Num == nil {
				continue
			}
			scaled++
			for _, k := range []int{3, -3, 10} {
				f := math.Ldexp(1, k)
				for _, v := range col.Num {
					if s := v * f; v != 0 && !math.IsNaN(v) && (math.Abs(s) < 0x1p-1022 || math.IsInf(s, 0)) {
						t.Fatalf("%s: %s scaled by 2^%d leaves the normal range (%v)", name, col.Attr.Name, k, v)
					}
				}
				res := diagnoseMetamorphic(t, a, rebuildDataset(t, ds, order, map[int]float64{i: f}), abn)
				gotPreds, gotPower := byAttr(t, res.Explanation)
				sub := fmt.Sprintf("%s/%s*2^%d", name, col.Attr.Name, k)
				if len(gotPreds) != len(wantPreds) {
					t.Errorf("%s: %d predicates, want %d", sub, len(gotPreds), len(wantPreds))
				}
				for attr, w := range wantPreds {
					if attr == col.Attr.Name {
						w.Lower *= f
						w.Upper *= f
					}
					if g, ok := gotPreds[attr]; !ok || !samePredicate(g, w) {
						t.Errorf("%s: predicate on %s = %v (present %v), want %v", sub, attr, g, ok, w)
					}
				}
				comparePowers(t, sub, gotPower, wantPower)
			}
		}
		if scaled == 0 {
			t.Fatalf("%s: no numeric predicate to scale", name)
		}
	})
}
