package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dbsherlock/internal/metrics"
)

// wideDataset builds a dataset with many numeric attributes (half of
// them shifted inside the anomaly window, with varying magnitudes) and a
// few categorical attributes, so Generate has real per-attribute work to
// fan out and a mix of predicate outcomes to keep deterministic.
func wideDataset(t testing.TB, rows, numAttrs, aStart, aEnd int, seed int64) (*metrics.Dataset, *metrics.Region, *metrics.Region) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ts := make([]int64, rows)
	for i := range ts {
		ts[i] = int64(i)
	}
	ds := metrics.MustNewDataset(ts)
	for a := 0; a < numAttrs; a++ {
		col := make([]float64, rows)
		shift := 0.0
		if a%2 == 0 {
			// Shifts from barely-above-noise to dramatic, so some
			// attributes clear theta and others don't.
			shift = float64(50 + 40*a)
		}
		for i := range col {
			mean := 100.0 + 3*float64(a)
			if i >= aStart && i < aEnd {
				mean += shift
			}
			col[i] = mean + 10*rng.NormFloat64()
		}
		if a%7 == 3 {
			// Sprinkle NaNs to exercise the skip paths.
			col[rng.Intn(rows)] = math.NaN()
		}
		if err := ds.AddNumeric(fmt.Sprintf("attr_%03d", a), col); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 3; c++ {
		col := make([]string, rows)
		for i := range col {
			v := "steady"
			if c == 0 && i >= aStart && i < aEnd {
				v = "burst"
			} else if rng.Intn(4) == 0 {
				v = fmt.Sprintf("mode-%d", rng.Intn(3))
			}
			col[i] = v
		}
		if err := ds.AddCategorical(fmt.Sprintf("cat_%d", c), col); err != nil {
			t.Fatal(err)
		}
	}
	abnormal := metrics.RegionFromRange(rows, aStart, aEnd)
	return ds, abnormal, abnormal.Complement()
}

// TestGenerateGoldenAcrossWorkerCounts is the determinism golden test of
// the parallel engine: Algorithm 1 run sequentially and with 1/2/8
// workers must produce byte-identical predicates — same attributes, same
// order, same float bits.
func TestGenerateGoldenAcrossWorkerCounts(t *testing.T) {
	ds, abnormal, normal := wideDataset(t, 300, 40, 180, 240, 42)
	p := DefaultParams()
	p.Workers = 1
	golden, err := Generate(ds, abnormal, normal, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(golden) == 0 {
		t.Fatal("golden run produced no predicates; the testbed is miswired")
	}
	goldenRepr := fmt.Sprintf("%#v", golden)

	for _, workers := range []int{0, 2, 8} {
		p.Workers = workers
		for run := 0; run < 3; run++ { // repeat: scheduling must not matter
			got, err := Generate(ds, abnormal, normal, p)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(got, golden) {
				t.Fatalf("workers=%d run %d: predicates diverge from sequential:\n got %v\nwant %v",
					workers, run, got, golden)
			}
			if repr := fmt.Sprintf("%#v", got); repr != goldenRepr {
				t.Fatalf("workers=%d run %d: byte representation diverges:\n got %s\nwant %s",
					workers, run, repr, goldenRepr)
			}
		}
	}
}

// generateParamCases are the parameter variations (ablation switches
// included) the table-driven Algorithm 1 tests run over.
var generateParamCases = []struct {
	name string
	mod  func(*Params)
}{
	{"defaults", func(*Params) {}},
	{"low-theta", func(p *Params) { p.Theta = 0.05 }},
	{"few-partitions", func(p *Params) { p.NumPartitions = 25 }},
	{"no-filtering", func(p *Params) { p.DisableFiltering = true }},
	{"no-gap-filling", func(p *Params) { p.DisableGapFilling = true }},
}

// TestGenerateGoldenTableDriven pins worker-count independence across
// parameter variations (ablation switches included).
func TestGenerateGoldenTableDriven(t *testing.T) {
	ds, abnormal, normal := wideDataset(t, 250, 24, 150, 200, 7)
	for _, tc := range generateParamCases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			tc.mod(&p)
			p.Workers = 1
			golden, err := Generate(ds, abnormal, normal, p)
			if err != nil {
				t.Fatal(err)
			}
			p.Workers = 8
			got, err := Generate(ds, abnormal, normal, p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, golden) {
				t.Fatalf("parallel diverges from sequential:\n got %v\nwant %v", got, golden)
			}
		})
	}
}

func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(5); got != 5 {
		t.Errorf("ResolveWorkers(5) = %d, want 5", got)
	}
	if got := ResolveWorkers(0); got < 1 {
		t.Errorf("ResolveWorkers(0) = %d, want >= 1 (GOMAXPROCS)", got)
	}
	if got := ResolveWorkers(-3); got < 1 {
		t.Errorf("ResolveWorkers(-3) = %d, want >= 1 (GOMAXPROCS)", got)
	}
}

// TestForEachCoversEachIndexOnce checks the pool's contract for every
// workers/n shape: each index runs exactly once, regardless of pool size.
func TestForEachCoversEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100} {
		for _, workers := range []int{1, 2, 8, 200} {
			counts := make([]int32, n)
			var mu sync.Mutex
			ForEach(n, workers, func(i int) {
				mu.Lock()
				counts[i]++
				mu.Unlock()
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestEvaluatorConcurrentSeparation hammers one shared Evaluator from
// many goroutines, racing scoring against a Generate that gap-fills
// from the same spaces, and checks every goroutine observes the same
// separation values. Run with -race.
func TestEvaluatorConcurrentSeparation(t *testing.T) {
	ds, abnormal, normal := wideDataset(t, 200, 16, 120, 160, 11)
	p := DefaultParams()
	p.Theta = 0.05
	preds, err := Generate(ds, abnormal, normal, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) == 0 {
		t.Fatal("no predicates to score")
	}
	want := make([]float64, len(preds))
	ref := newEvaluator(t, ds, abnormal, normal, p)
	for i, pred := range preds {
		want[i] = ref.Separation(pred)
	}

	shared := newEvaluator(t, ds, abnormal, normal, p)
	var wg sync.WaitGroup
	errs := make(chan error, 17)
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, err := shared.Generate(context.Background(), nil)
		if err == nil && !reflect.DeepEqual(got, preds) {
			err = fmt.Errorf("Generate on a shared evaluator: %v, want %v", got, preds)
		}
		if err != nil {
			errs <- err
		}
	}()
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, pred := range preds {
				if got := shared.Separation(pred); got != want[i] {
					errs <- fmt.Errorf("predicate %v: separation %v, want %v", pred, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
