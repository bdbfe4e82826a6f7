package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"dbsherlock/internal/metrics"
)

// randomDiagnosis builds a random dataset with a few attributes of
// varying signal strength plus an anomaly window.
func randomDiagnosis(seed int64) (*metrics.Dataset, *metrics.Region, *metrics.Region) {
	rng := rand.New(rand.NewSource(seed))
	rows := 120 + rng.Intn(120)
	aStart := 20 + rng.Intn(rows/2)
	aLen := 10 + rng.Intn(40)
	if aStart+aLen > rows {
		aLen = rows - aStart
	}
	ts := make([]int64, rows)
	for i := range ts {
		ts[i] = int64(i)
	}
	ds := metrics.MustNewDataset(ts)
	nAttrs := 3 + rng.Intn(5)
	for a := 0; a < nAttrs; a++ {
		base := 10 + 100*rng.Float64()
		shift := base * (0.5 + 20*rng.Float64()) * float64(1-2*rng.Intn(2))
		noise := base * (0.02 + 0.2*rng.Float64())
		col := make([]float64, rows)
		for i := range col {
			v := base
			if i >= aStart && i < aStart+aLen {
				v += shift
			}
			col[i] = v + noise*rng.NormFloat64()
		}
		name := string(rune('a' + a))
		if err := ds.AddNumeric(name, col); err != nil {
			panic(err)
		}
	}
	abn := metrics.RegionFromRange(rows, aStart, aStart+aLen)
	return ds, abn, abn.Complement()
}

// Property: every generated predicate has positive separation power on
// the data it was generated from — the defining criterion of Section 3.
func TestGeneratedPredicatesSeparateTrainingData(t *testing.T) {
	f := func(seed int64) bool {
		ds, abn, normal := randomDiagnosis(seed)
		preds, err := Generate(ds, abn, normal, DefaultParams())
		if err != nil {
			return false
		}
		for _, p := range preds {
			if SeparationPower(p, ds, abn, normal) <= 0 {
				t.Logf("seed %d: predicate %v has non-positive separation power", seed, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the cached Evaluator agrees exactly with the one-shot
// PartitionSeparation for every generated predicate.
func TestEvaluatorMatchesPartitionSeparation(t *testing.T) {
	f := func(seed int64) bool {
		ds, abn, normal := randomDiagnosis(seed)
		p := DefaultParams()
		p.Theta = 0.05
		preds, err := Generate(ds, abn, normal, p)
		if err != nil {
			return false
		}
		ev, err := NewEvaluator(context.Background(), ds, abn, normal, p, nil)
		if err != nil {
			return false
		}
		for _, pred := range preds {
			if ev.Separation(pred) != PartitionSeparation(pred, ds, abn, normal, p) {
				return false
			}
			// A second call reads the same space and must agree.
			if ev.Separation(pred) != ev.Separation(pred) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: predicate generation is deterministic.
func TestGenerateDeterministic(t *testing.T) {
	ds, abn, normal := randomDiagnosis(7)
	a, err := Generate(ds, abn, normal, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(ds, abn, normal, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("predicate %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: swapping the abnormal and normal regions can never produce
// a predicate that matches the (now-normal) original abnormal rows
// better: the direction of every predicate flips with the regions.
func TestGenerateRegionSwapFlipsDirection(t *testing.T) {
	ds, abn, normal := randomDiagnosis(11)
	p := DefaultParams()
	p.Theta = 0.05
	fwd, err := Generate(ds, abn, normal, p)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := Generate(ds, normal, abn, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range fwd {
		if SeparationPower(pf, ds, abn, normal) <= 0 {
			t.Errorf("forward predicate %v does not separate forward", pf)
		}
	}
	for _, pr := range rev {
		if SeparationPower(pr, ds, normal, abn) <= 0 {
			t.Errorf("reversed predicate %v does not separate reversed", pr)
		}
	}
}

// Property: tightening theta only removes predicates, never adds or
// changes them (theta is a pure filter, Section 4.5).
func TestThetaMonotoneFilter(t *testing.T) {
	ds, abn, normal := randomDiagnosis(13)
	thetas := []float64{0.01, 0.05, 0.1, 0.2, 0.4, 0.8}
	var prev map[string]string
	for i, theta := range thetas {
		p := DefaultParams()
		p.Theta = theta
		preds, err := Generate(ds, abn, normal, p)
		if err != nil {
			t.Fatal(err)
		}
		cur := make(map[string]string, len(preds))
		for _, pr := range preds {
			cur[pr.Attr] = pr.String()
		}
		if i > 0 {
			for attr, repr := range cur {
				if prevRepr, ok := prev[attr]; !ok {
					t.Errorf("theta=%v introduced predicate on %s absent at smaller theta", theta, attr)
				} else if prevRepr != repr {
					t.Errorf("theta changed predicate on %s: %q vs %q", attr, prevRepr, repr)
				}
			}
		}
		prev = cur
	}
}
