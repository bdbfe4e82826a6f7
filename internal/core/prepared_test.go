package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dbsherlock/internal/metrics"
)

// These tests pin the prepared-index contract (DESIGN.md §16): a space
// built through the prepared kernels is identical to one built by the
// unprepared per-row scan, and the index is keyed by dataset generation
// so any dataset mutation transparently invalidates it. Ownership — one
// index per dataset, shared by every analyzer — is pinned at the package
// root (TestPreparedIndexOwnedByDataset).

// TestPreparedSpaceMatchesFresh drives every numeric column of the
// golden datasets through both construction paths — the prepared
// counting kernels and the unprepared scan — and requires identical
// spaces plus kernel sums identical to the reference region mean.
func TestPreparedSpaceMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rows := 150 + 30*int(seed)
		ds := goldenDataset(t, rows, seed)
		rng := rand.New(rand.NewSource(seed + 50))
		for _, reg := range goldenRegions(rows, rng) {
			normal := reg.abnormal.Complement()
			aRuns, nRuns := reg.abnormal.RunList(), normal.RunList()
			for _, r := range []int{7, 100, 250} {
				prep := PreparedFor(ds, r)
				if prep == nil {
					t.Fatalf("seed=%d R=%d: PreparedFor returned nil for a mutated dataset", seed, r)
				}
				if prep.Generation() != ds.Generation() || prep.Partitions() != r {
					t.Fatalf("seed=%d R=%d: index keyed (gen=%d R=%d), want (gen=%d R=%d)",
						seed, r, prep.Generation(), prep.Partitions(), ds.Generation(), r)
				}
				for i := 0; i < ds.NumAttrs(); i++ {
					col := ds.ColumnAt(i)
					if col.Attr.Type != metrics.Numeric {
						if prep.column(i) != nil {
							t.Fatalf("categorical column %q has a prepared entry", col.Attr.Name)
						}
						continue
					}
					pc := prep.column(i)
					if pc == nil {
						t.Fatalf("numeric column %q has no prepared entry", col.Attr.Name)
					}
					name := fmt.Sprintf("seed=%d region=%s attr=%s R=%d", seed, reg.name, col.Attr.Name, r)
					sc := getScratch()
					got, sumA, sumN, cntA, cntN := newNumericSpacePrepared(col.Attr.Name, col.Num, pc, aRuns, nRuns, r, sc)
					want := newNumericSpace(col.Attr.Name, col.Num, reg.abnormal, normal, r, sc)
					putScratch(sc)
					if (got == nil) != (want == nil) {
						t.Fatalf("%s: nil mismatch (prepared %v, fresh %v)", name, got, want)
					}
					if got != nil && !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: prepared space %+v, fresh %+v", name, got, want)
					}
					if got == nil {
						continue // constant column: no space, kernel sums unused
					}
					muA := meanOf(sumA, cntA)
					muN := meanOf(sumN, cntN)
					refA := refRegionMean(col.Num, reg.abnormal)
					refN := refRegionMean(col.Num, normal)
					if !sameFloat(muA, refA) || !sameFloat(muN, refN) {
						t.Fatalf("%s: kernel means (%v, %v), refRegionMean (%v, %v)", name, muA, muN, refA, refN)
					}
				}
			}
		}
	}
}

func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// TestPreparedForGuards pins the conditions under which no index
// exists: nil and empty datasets and degenerate partition counts.
func TestPreparedForGuards(t *testing.T) {
	if PreparedFor(nil, 250) != nil {
		t.Error("nil dataset: want nil index")
	}
	empty := metrics.MustNewDataset(nil)
	if PreparedFor(empty, 250) != nil {
		t.Error("empty dataset: want nil index")
	}
	ds := goldenDataset(t, 50, 1)
	if PreparedFor(ds, 1) != nil {
		t.Error("R=1: want nil index")
	}
	if p := PreparedFor(ds, 2); p == nil {
		t.Error("R=2: want an index")
	}
}

// TestPreparedInvalidationOnMutation checks every mutating Dataset
// method bumps the generation, so PreparedFor after a mutation returns
// a fresh index covering the new column and never serves the stale one.
func TestPreparedInvalidationOnMutation(t *testing.T) {
	ds := metrics.MustNewDataset([]int64{0, 1, 2, 3})
	if err := ds.AddNumeric("a", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	p1 := PreparedFor(ds, 10)
	g1 := ds.Generation()

	if err := ds.AddNumeric("b", []float64{5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if ds.Generation() == g1 {
		t.Fatal("AddNumeric did not bump the generation")
	}
	p2 := PreparedFor(ds, 10)
	if p2 == p1 || p2.Generation() != ds.Generation() {
		t.Fatal("AddNumeric: stale prepared index served after mutation")
	}
	if i, _ := ds.ColumnIndex("b"); p2.column(i) == nil {
		t.Fatal("AddNumeric: fresh index does not cover the new column")
	}
	// The stale index must degrade safely: out-of-range columns resolve
	// to nil rather than mislabeling.
	if i, _ := ds.ColumnIndex("b"); p1.column(i) != nil {
		t.Fatal("stale index claims to cover a column added after preparation")
	}

	g2 := ds.Generation()
	if err := ds.AddCategorical("c", []string{"x", "y", "x", "y"}); err != nil {
		t.Fatal(err)
	}
	if ds.Generation() == g2 {
		t.Fatal("AddCategorical did not bump the generation")
	}
	p3 := PreparedFor(ds, 10)
	if p3 == p2 || p3.Generation() != ds.Generation() {
		t.Fatal("AddCategorical: stale prepared index served after mutation")
	}

	// A different partition count gets its own index.
	if PreparedFor(ds, 25) == p3 {
		t.Fatal("indexes for different partition counts were conflated")
	}
}

// TestEvaluatorSeparationMatchesLinearScan pins the boundary-walk
// Separation against the reference full scan over midpoints, across
// golden spaces at R = 2, 97 and 1000 and randomized bounds: bounds on
// exact midpoints and one ULP to either side of them, NaN and ±Inf
// bounds, Lower ≥ Upper, unbounded sides, and empty predicates.
func TestEvaluatorSeparationMatchesLinearScan(t *testing.T) {
	rows := 220
	ds := goldenDataset(t, rows, 5)
	rng := rand.New(rand.NewSource(5))
	inf := math.Inf(1)
	for _, reg := range goldenRegions(rows, rng) {
		normal := reg.abnormal.Complement()
		for _, r := range []int{2, 97, 1000} {
			e := newEvaluator(t, ds, reg.abnormal, normal, Params{NumPartitions: r, Theta: 0.05, Delta: 10})
			for _, attr := range []string{"gauss_shift", "int_counter", "nan_holes", "constant", "pure_noise"} {
				ps := e.NumericSpaceFor(attr)
				var preds []Predicate
				preds = append(preds,
					Predicate{Attr: attr, Type: metrics.Numeric},                                // no bounds
					Predicate{Attr: attr, Type: metrics.Numeric, HasLower: true, Lower: -1e300}, // everything
					Predicate{Attr: attr, Type: metrics.Numeric, HasUpper: true, Upper: -1e300}, // nothing
				)
				// Non-finite bounds, alone, paired with themselves and
				// against an open other side.
				for _, x := range []float64{math.NaN(), inf, -inf} {
					preds = append(preds,
						Predicate{Attr: attr, Type: metrics.Numeric, HasLower: true, Lower: x},
						Predicate{Attr: attr, Type: metrics.Numeric, HasUpper: true, Upper: x},
						Predicate{Attr: attr, Type: metrics.Numeric, HasLower: true, Lower: x, HasUpper: true, Upper: x},
						Predicate{Attr: attr, Type: metrics.Numeric, HasLower: true, Lower: -inf, HasUpper: true, Upper: x},
						Predicate{Attr: attr, Type: metrics.Numeric, HasLower: true, Lower: x, HasUpper: true, Upper: inf},
					)
				}
				if ps != nil {
					// A quarter of the probes sit exactly on midpoints,
					// where the strict-inequality boundary behavior
					// matters most, and a quarter each one ULP above and
					// below one.
					pick := func() float64 {
						m := ps.Midpoint(rng.Intn(len(ps.Labels)))
						switch rng.Intn(4) {
						case 0:
							return m
						case 1:
							return math.Nextafter(m, inf)
						case 2:
							return math.Nextafter(m, -inf)
						}
						return m + (rng.Float64()-0.5)*(ps.Max-ps.Min)/10
					}
					for i := 0; i < 60; i++ {
						p := Predicate{Attr: attr, Type: metrics.Numeric}
						if rng.Intn(3) != 0 {
							p.HasLower, p.Lower = true, pick()
						}
						if rng.Intn(3) != 0 {
							p.HasUpper, p.Upper = true, pick()
						}
						preds = append(preds, p)
					}
					// Lower ≥ Upper: empty intervals at and around a
					// midpoint.
					for i := 0; i < 10; i++ {
						m := ps.Midpoint(rng.Intn(len(ps.Labels)))
						up, down := math.Nextafter(m, inf), math.Nextafter(m, -inf)
						preds = append(preds,
							Predicate{Attr: attr, Type: metrics.Numeric, HasLower: true, Lower: m, HasUpper: true, Upper: m},
							Predicate{Attr: attr, Type: metrics.Numeric, HasLower: true, Lower: up, HasUpper: true, Upper: m},
							Predicate{Attr: attr, Type: metrics.Numeric, HasLower: true, Lower: m, HasUpper: true, Upper: down},
							Predicate{Attr: attr, Type: metrics.Numeric, HasLower: true, Lower: up, HasUpper: true, Upper: down},
						)
					}
				}
				for _, p := range preds {
					got := e.Separation(p)
					want := refSeparationScan(ps, p)
					if got != want {
						t.Errorf("region=%s R=%d pred=%+v: Separation = %v, linear scan = %v", reg.name, r, p, got, want)
					}
				}
			}
		}
	}
}

// refSeparationScan is the seed Separation: walk every partition,
// evaluate the predicate on its midpoint.
func refSeparationScan(ps *NumericSpace, pred Predicate) float64 {
	if ps == nil {
		return 0
	}
	var nA, nN, hitA, hitN int
	for j, l := range ps.Labels {
		switch l {
		case Abnormal:
			nA++
			if pred.MatchesNumeric(ps.Midpoint(j)) {
				hitA++
			}
		case Normal:
			nN++
			if pred.MatchesNumeric(ps.Midpoint(j)) {
				hitN++
			}
		}
	}
	return ratio(hitA, nA) - ratio(hitN, nN)
}

// TestCategoricalIDPathMatchesMapPath pins the dictionary-encoded
// categorical build against the string-map build over randomized
// columns and region shapes, including single-value and empty-region
// cases.
func TestCategoricalIDPathMatchesMapPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		rows := 40 + rng.Intn(160)
		alphabet := []string{"alpha", "beta", "gamma", "delta", "eps", "zeta"}[:1+rng.Intn(6)]
		vals := make([]string, rows)
		for i := range vals {
			vals[i] = alphabet[rng.Intn(len(alphabet))]
		}
		ts := make([]int64, rows)
		for i := range ts {
			ts[i] = int64(i)
		}
		ds := metrics.MustNewDataset(ts)
		if err := ds.AddCategorical("c", vals); err != nil {
			t.Fatal(err)
		}
		col, _ := ds.Column("c")
		lo := rng.Intn(rows)
		hi := lo + rng.Intn(rows-lo)
		abnormal := metrics.RegionFromRange(rows, lo, hi)
		normal := abnormal.Complement()
		aRuns, nRuns := abnormal.RunList(), normal.RunList()
		sc := getScratch()
		got := newCategoricalSpaceIDs("c", col, aRuns, nRuns, sc)
		want := newCategoricalSpace("c", vals, abnormal, normal, sc)
		putScratch(sc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (rows=%d, |alphabet|=%d, abnormal=[%d,%d)): id path %+v, map path %+v",
				trial, rows, len(alphabet), lo, hi, got, want)
		}
	}
}

// BenchmarkCategoricalDistinct measures the categorical space build —
// the distinct-value collection plus counting — through both paths. The
// id path replaces per-row map lookups and sort.Strings with array
// counting over interned ids.
func BenchmarkCategoricalDistinct(b *testing.B) {
	rows := 1000
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"ok", "locked", "waiting", "aborted", "idle"}
	vals := make([]string, rows)
	for i := range vals {
		vals[i] = alphabet[rng.Intn(len(alphabet))]
	}
	ts := make([]int64, rows)
	for i := range ts {
		ts[i] = int64(i)
	}
	ds := metrics.MustNewDataset(ts)
	if err := ds.AddCategorical("c", vals); err != nil {
		b.Fatal(err)
	}
	col, _ := ds.Column("c")
	abnormal := metrics.RegionFromRange(rows, rows/2, 3*rows/4)
	normal := abnormal.Complement()
	aRuns, nRuns := abnormal.RunList(), normal.RunList()
	b.Run("ids", func(b *testing.B) {
		sc := getScratch()
		defer putScratch(sc)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if newCategoricalSpaceIDs("c", col, aRuns, nRuns, sc) == nil {
				b.Fatal("nil space")
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		sc := getScratch()
		defer putScratch(sc)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if newCategoricalSpace("c", vals, abnormal, normal, sc) == nil {
				b.Fatal("nil space")
			}
		}
	})
}
