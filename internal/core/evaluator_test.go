package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dbsherlock/internal/metrics"
)

// newEvaluator builds a test's evaluator, failing the test on error.
func newEvaluator(t testing.TB, ds *metrics.Dataset, abnormal, normal *metrics.Region, p Params) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(context.Background(), ds, abnormal, normal, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEvaluatorColumnAddedAfterConstruction pins the slot bound: a
// column the dataset gains after the evaluator was built has no slot,
// so it yields no space and separates nothing.
func TestEvaluatorColumnAddedAfterConstruction(t *testing.T) {
	ds, abnormal, normal := wideDataset(t, 200, 6, 120, 160, 17)
	p := DefaultParams()
	ev := newEvaluator(t, ds, abnormal, normal, p)
	if _, err := ev.Generate(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	late := make([]float64, ds.Rows())
	lateCat := make([]string, ds.Rows())
	for i := range late {
		late[i], lateCat[i] = 1, "steady"
		if abnormal.Contains(i) {
			late[i], lateCat[i] = 100, "burst"
		}
	}
	if err := ds.AddNumeric("late", late); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddCategorical("late_cat", lateCat); err != nil {
		t.Fatal(err)
	}
	// A fresh evaluator over the grown dataset separates both columns
	// perfectly; the old one must not see them.
	num := Predicate{Attr: "late", Type: metrics.Numeric, HasLower: true, Lower: 50}
	cat := Predicate{Attr: "late_cat", Type: metrics.Categorical, Categories: []string{"burst"}}
	fresh := newEvaluator(t, ds, abnormal, normal, p)
	if fresh.Separation(num) != 1 || fresh.Separation(cat) != 1 {
		t.Fatalf("fresh evaluator: separations %v / %v, want 1 / 1", fresh.Separation(num), fresh.Separation(cat))
	}

	if ps := ev.NumericSpaceFor("late"); ps != nil {
		t.Errorf("NumericSpaceFor(late) = %+v, want nil", ps)
	}
	if got := ev.Separation(num); got != 0 {
		t.Errorf("Separation(late) = %v, want 0", got)
	}
	if got := ev.Separation(cat); got != 0 {
		t.Errorf("Separation(late_cat) = %v, want 0", got)
	}
}

// referenceSlot builds column i's slot through the exported,
// unprepared constructors: NewNumericSpace, then Filter unless
// filtering is disabled, with refRegionMean's region means; or
// NewCategoricalSpace.
func referenceSlot(ds *metrics.Dataset, i int, abnormal, normal *metrics.Region, p Params) slot {
	col := ds.ColumnAt(i)
	if col.Attr.Type == metrics.Categorical {
		return slot{cat: NewCategoricalSpace(col.Attr.Name, col.Cat, abnormal, normal)}
	}
	s := slot{num: NewNumericSpace(col.Attr.Name, col.Num, abnormal, normal, p.NumPartitions)}
	if s.num == nil {
		return s
	}
	if !p.DisableFiltering {
		s.num.Filter()
	}
	for _, l := range s.num.Labels {
		switch l {
		case Abnormal:
			s.nA++
		case Normal:
			s.nN++
		}
	}
	s.muA, s.muN = refRegionMean(col.Num, abnormal), refRegionMean(col.Num, normal)
	return s
}

// sameSlot compares two slots, region means bit for bit. Means are
// read only beside a numeric space, so they count only there.
func sameSlot(a, b slot) bool {
	if !reflect.DeepEqual(a.num, b.num) || !reflect.DeepEqual(a.cat, b.cat) || a.nA != b.nA || a.nN != b.nN {
		return false
	}
	return a.num == nil || (math.Float64bits(a.muA) == math.Float64bits(b.muA) &&
		math.Float64bits(a.muN) == math.Float64bits(b.muN))
}

// TestEvaluatorPrepareMatchesLazy pins the one build path: across the
// table-driven parameter sets and worker counts, every slot the
// evaluator prepares at construction equals the space the reference
// constructors build for that column on its own, and Generate, which
// gap-fills a scratch copy of each space, leaves every slot unchanged.
func TestEvaluatorPrepareMatchesLazy(t *testing.T) {
	ds, abnormal, normal := wideDataset(t, 200, 16, 120, 160, 13)
	for _, tc := range generateParamCases {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				p := DefaultParams()
				p.Theta = 0.05
				tc.mod(&p)
				p.Workers = workers
				ev := newEvaluator(t, ds, abnormal, normal, p)
				want := make([]slot, ds.NumAttrs())
				for i := range want {
					want[i] = referenceSlot(ds, i, abnormal, normal, p)
				}
				check := func(when string) {
					t.Helper()
					for i, s := range ev.slots {
						if !sameSlot(s, want[i]) {
							t.Errorf("%s: column %d slot %+v %+v (nA=%d nN=%d muA=%v muN=%v), reference %+v %+v (nA=%d nN=%d muA=%v muN=%v)",
								when, i, s.num, s.cat, s.nA, s.nN, s.muA, s.muN,
								want[i].num, want[i].cat, want[i].nA, want[i].nN, want[i].muA, want[i].muN)
						}
					}
				}
				check("built")
				preds, err := ev.Generate(context.Background(), nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(preds) == 0 {
					t.Fatal("no predicates generated")
				}
				check("after Generate")
			})
		}
	}
}

// FuzzSeparation checks the numeric Separation against the reference
// scan (refSeparationScan) on literal spaces: fuzzed Min, Max, R,
// labels and bounds, including spans whose width overflows to +Inf or
// underflows to zero and infinite or NaN ends. Min > Max is skipped: a
// built space never has it. A bound selector below zero leaves its side
// open, zero takes the fuzzed value, and k > 0 pins the bound to the
// midpoint of partition (k−1)/3 mod R, one ULP below it, on it or one
// ULP above it by (k−1) mod 3.
func FuzzSeparation(f *testing.F) {
	labels := []byte{0, 1, 2, 2, 0, 1, 1, 2, 0, 0, 2}
	f.Add(0.0, 100.0, uint16(250), labels, 10.0, 60.0, int16(0), int16(0))
	f.Add(0.0, 500.0, uint16(250), labels, 0.0, 0.0, int16(301), int16(600))
	f.Add(-5.0, 5.0, uint16(2), []byte{2, 1}, 0.0, 0.0, int16(1), int16(-1))
	f.Add(-math.MaxFloat64, math.MaxFloat64, uint16(7), labels, 1.0, 0.0, int16(0), int16(-1))
	f.Add(0.0, math.MaxFloat64, uint16(3), labels, 0.0, 0.0, int16(9), int16(3))
	f.Add(0.0, 5e-324, uint16(250), labels, 0.0, 0.0, int16(0), int16(0))
	f.Add(1.0, math.Nextafter(1, 2), uint16(1000), labels, 1.0, 2.0, int16(0), int16(0))
	f.Add(1.0, math.Inf(1), uint16(5), labels, 3.0, 0.0, int16(0), int16(2))
	f.Add(math.Inf(-1), 1.0, uint16(5), labels, 3.0, 0.0, int16(0), int16(-1))
	f.Add(0.0, 1.0, uint16(64), labels, math.NaN(), math.Inf(1), int16(0), int16(0))
	f.Fuzz(func(t *testing.T, min, max float64, r uint16, seed []byte, lower, upper float64, lowerAt, upperAt int16) {
		if min > max || len(seed) == 0 {
			t.Skip()
		}
		n := 1 + int(r)%2048
		ps := &NumericSpace{Attr: "x", Min: min, Max: max, R: n, Labels: make([]Label, n), invSpan: 1 / (max - min)}
		s := slot{num: ps}
		for j := range ps.Labels {
			ps.Labels[j] = Label(seed[j%len(seed)] % 3)
			switch ps.Labels[j] {
			case Abnormal:
				s.nA++
			case Normal:
				s.nN++
			}
		}
		bound := func(at int16, v float64) (bool, float64) {
			switch {
			case at < 0:
				return false, 0
			case at == 0:
				return true, v
			}
			k := int(at) - 1
			m := ps.Midpoint(k / 3 % n)
			switch k % 3 {
			case 0:
				m = math.Nextafter(m, math.Inf(-1))
			case 2:
				m = math.Nextafter(m, math.Inf(1))
			}
			return true, m
		}
		pred := Predicate{Attr: "x", Type: metrics.Numeric}
		pred.HasLower, pred.Lower = bound(lowerAt, lower)
		pred.HasUpper, pred.Upper = bound(upperAt, upper)
		got, want := s.numericSeparation(pred), refSeparationScan(ps, pred)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("space [%v, %v] R=%d, pred %+v: Separation = %v, linear scan = %v", min, max, n, pred, got, want)
		}
	})
}
