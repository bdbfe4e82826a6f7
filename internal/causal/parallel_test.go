package causal

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dbsherlock/internal/core"
	"dbsherlock/internal/metrics"
)

// rankTestbed builds a dataset with enough shifted attributes to back a
// dozen causal models, plus the models themselves (each claiming a
// different attribute subset, so confidences spread out).
func rankTestbed(t testing.TB, seed int64) (*metrics.Dataset, *metrics.Region, *metrics.Region, *Repository) {
	t.Helper()
	const rows, attrs, aStart, aEnd = 300, 24, 180, 240
	rng := rand.New(rand.NewSource(seed))
	ts := make([]int64, rows)
	for i := range ts {
		ts[i] = int64(i)
	}
	ds := metrics.MustNewDataset(ts)
	names := make([]string, attrs)
	for a := 0; a < attrs; a++ {
		names[a] = fmt.Sprintf("metric_%02d", a)
		col := make([]float64, rows)
		shift := float64(30 * (a % 5)) // some attributes don't move at all
		for i := range col {
			mean := 100.0
			if i >= aStart && i < aEnd {
				mean += shift
			}
			col[i] = mean + 8*rng.NormFloat64()
		}
		if err := ds.AddNumeric(names[a], col); err != nil {
			t.Fatal(err)
		}
	}
	abnormal := metrics.RegionFromRange(rows, aStart, aEnd)
	normal := abnormal.Complement()

	repo := NewRepository()
	for m := 0; m < 12; m++ {
		var preds []core.Predicate
		for k := 0; k < 3; k++ {
			attr := names[(m*3+k*5)%attrs]
			preds = append(preds, core.Predicate{
				Attr: attr, Type: metrics.Numeric,
				HasLower: true, Lower: 110 + float64(5*m),
			})
		}
		if err := repo.Add(New(fmt.Sprintf("cause-%02d", m), preds)); err != nil {
			t.Fatal(err)
		}
	}
	return ds, abnormal, normal, repo
}

// TestRankGoldenAcrossWorkerCounts is the determinism golden test for
// model ranking: Rank with 1/2/8 workers must return the same causes in
// the same order with bit-identical confidences as the sequential run.
func TestRankGoldenAcrossWorkerCounts(t *testing.T) {
	ds, abnormal, normal, repo := rankTestbed(t, 99)
	p := core.DefaultParams()
	p.Workers = 1
	golden := repo.Rank(ds, abnormal, normal, p)
	if len(golden) != 12 {
		t.Fatalf("golden rank returned %d causes, want 12", len(golden))
	}
	distinct := false
	for i := 1; i < len(golden); i++ {
		if golden[i].Confidence != golden[0].Confidence {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("all confidences identical; the testbed does not exercise ordering")
	}

	for _, workers := range []int{0, 2, 8} {
		p.Workers = workers
		for run := 0; run < 3; run++ {
			got := repo.Rank(ds, abnormal, normal, p)
			if len(got) != len(golden) {
				t.Fatalf("workers=%d: %d causes, want %d", workers, len(got), len(golden))
			}
			for i := range got {
				if got[i].Cause != golden[i].Cause {
					t.Fatalf("workers=%d run %d: rank %d is %q, want %q",
						workers, run, i, got[i].Cause, golden[i].Cause)
				}
				if math.Float64bits(got[i].Confidence) != math.Float64bits(golden[i].Confidence) {
					t.Fatalf("workers=%d run %d: %q confidence %v (bits %x), want %v (bits %x)",
						workers, run, got[i].Cause,
						got[i].Confidence, math.Float64bits(got[i].Confidence),
						golden[i].Confidence, math.Float64bits(golden[i].Confidence))
				}
			}
		}
	}
}

// TestRankEvalSharedEvaluatorParallel checks RankEvalCtx against one
// shared evaluator reused across calls (the server's hot path) stays
// golden.
func TestRankEvalSharedEvaluatorParallel(t *testing.T) {
	ds, abnormal, normal, repo := rankTestbed(t, 7)
	p := core.DefaultParams()
	p.Workers = 1
	ev, err := core.NewEvaluator(context.Background(), ds, abnormal, normal, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	golden, _ := repo.RankEvalCtx(context.Background(), ev, nil)
	p.Workers = 8
	if ev, err = core.NewEvaluator(context.Background(), ds, abnormal, normal, p, nil); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		got, _ := repo.RankEvalCtx(context.Background(), ev, nil)
		for i := range got {
			if got[i].Cause != golden[i].Cause ||
				math.Float64bits(got[i].Confidence) != math.Float64bits(golden[i].Confidence) {
				t.Fatalf("run %d rank %d: (%q, %v), want (%q, %v)", run, i,
					got[i].Cause, got[i].Confidence, golden[i].Cause, golden[i].Confidence)
			}
		}
	}
}

// TestRepositoryCopyOnWriteSnapshots checks the immutability contract:
// pointers handed out before a write never change underneath the reader.
func TestRepositoryCopyOnWriteSnapshots(t *testing.T) {
	repo := NewRepository()
	base := New("X", []core.Predicate{{Attr: "a", Type: metrics.Numeric, HasLower: true, Lower: 10}})
	if err := repo.Add(base); err != nil {
		t.Fatal(err)
	}
	before := repo.Model("X")
	if !repo.AddRemediation("X", "restart the replica") {
		t.Fatal("AddRemediation failed for known cause")
	}
	if len(before.Remediations) != 0 {
		t.Errorf("snapshot mutated in place: %v", before.Remediations)
	}
	after := repo.Model("X")
	if len(after.Remediations) != 1 {
		t.Errorf("remediation not recorded: %v", after.Remediations)
	}
	if repo.AddRemediation("no-such-cause", "noop") {
		t.Error("AddRemediation accepted an unknown cause")
	}
	// The caller's model stays independent of the stored copy.
	base.Predicates[0].Lower = 999
	if got := repo.Model("X").Predicates[0].Lower; got != 10 {
		t.Errorf("stored model shares caller's slice: Lower = %v, want 10", got)
	}
}
