package dbsherlock_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dbsherlock"
)

// learnedAnalyzer builds an analyzer with two learned causes at the
// given worker count (theta lowered for merging, as in the learning
// tests).
func learnedAnalyzer(t *testing.T, workers int, tracing bool) *dbsherlock.Analyzer {
	t.Helper()
	opts := []dbsherlock.Option{dbsherlock.WithTheta(0.05), dbsherlock.WithWorkers(workers)}
	if tracing {
		opts = append(opts, dbsherlock.WithTracing())
	}
	a := dbsherlock.MustNew(opts...)
	for _, kind := range []dbsherlock.AnomalyKind{dbsherlock.LockContention, dbsherlock.NetworkCongestion} {
		for seed := int64(10); seed < 12; seed++ {
			ds, abn := simulateAnomaly(t, kind, seed)
			if _, err := a.LearnCause(kind.String(), ds, abn, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return a
}

// stripTrace returns the result with trace snapshots removed: traces
// carry wall-clock timings, so they are the one part of the output that
// legitimately differs between runs.
func stripTrace(res *dbsherlock.DiagnoseResult) *dbsherlock.DiagnoseResult {
	expl := *res.Explanation
	expl.Trace = nil
	return &dbsherlock.DiagnoseResult{Explanation: &expl, AllCauses: res.AllCauses}
}

// TestDiagnoseReuseByteIdentical pins the cache-correctness contract
// across the full matrix of worker counts and tracing modes: a
// diagnosis that captures state, a repeat diagnosis reusing that state,
// and a plain cold diagnosis all produce deeply equal output
// (trace timings excluded — they measure the run, not the result).
func TestDiagnoseReuseByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d,traced=%v", workers, traced), func(t *testing.T) {
				a := learnedAnalyzer(t, workers, false)
				ds, abn := simulateAnomaly(t, dbsherlock.LockContention, 99)

				plain, err := a.Diagnose(context.Background(),
					dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn, Trace: traced})
				if err != nil {
					t.Fatal(err)
				}
				cold, err := a.Diagnose(context.Background(),
					dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn, Trace: traced, CaptureState: true})
				if err != nil {
					t.Fatal(err)
				}
				if cold.State == nil {
					t.Fatal("CaptureState produced no state")
				}
				hot, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{
					Dataset: ds, Abnormal: abn, Trace: traced, Reuse: cold.State})
				if err != nil {
					t.Fatal(err)
				}
				if hot.State != cold.State {
					t.Fatal("accepted reuse must hand the same state back")
				}
				if traced && (cold.Trace == nil || hot.Trace == nil) {
					t.Fatal("traced runs must carry trace snapshots")
				}
				if !traced && (cold.Trace != nil || hot.Trace != nil) {
					t.Fatal("untraced runs must not carry trace snapshots")
				}
				want := stripTrace(plain)
				if got := stripTrace(cold); !reflect.DeepEqual(got, want) {
					t.Fatalf("capturing run differs from plain run:\n%+v\nvs\n%+v", got, want)
				}
				if got := stripTrace(hot); !reflect.DeepEqual(got, want) {
					t.Fatalf("reused run differs from plain run:\n%+v\nvs\n%+v", got, want)
				}
			})
		}
	}
}

// TestDiagnoseReuseMismatchRunsCold: a state offered for the wrong
// dataset or the wrong region is silently ignored — the output matches
// a cold run of the actual request, and fresh state is captured for it.
func TestDiagnoseReuseMismatchRunsCold(t *testing.T) {
	a := learnedAnalyzer(t, 0, false)
	ds1, abn1 := simulateAnomaly(t, dbsherlock.LockContention, 99)
	ds2, abn2 := simulateAnomaly(t, dbsherlock.NetworkCongestion, 7)

	captured, err := a.Diagnose(context.Background(),
		dbsherlock.DiagnoseRequest{Dataset: ds1, Abnormal: abn1, CaptureState: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Diagnose(context.Background(),
		dbsherlock.DiagnoseRequest{Dataset: ds2, Abnormal: abn2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{
		Dataset: ds2, Abnormal: abn2, Reuse: captured.State})
	if err != nil {
		t.Fatal(err)
	}
	if got.State == nil || got.State == captured.State {
		t.Fatal("mismatched reuse must capture fresh state for the actual request")
	}
	if !reflect.DeepEqual(stripTrace(got), stripTrace(want)) {
		t.Fatalf("mismatched reuse changed the output:\n%+v\nvs\n%+v", got, want)
	}

	// Same dataset, different region: also a cold run.
	other := dbsherlock.RegionFromRange(ds1.Rows(), 10, 40)
	wantOther, err := a.Diagnose(context.Background(),
		dbsherlock.DiagnoseRequest{Dataset: ds1, Abnormal: other})
	if err != nil {
		t.Fatal(err)
	}
	gotOther, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{
		Dataset: ds1, Abnormal: other, Reuse: captured.State})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTrace(gotOther), stripTrace(wantOther)) {
		t.Fatal("region-mismatched reuse changed the output")
	}

	// Same dataset instance and region, but the dataset gained a column
	// that separates the regions since the capture: also a cold run.
	ds3, abn3 := simulateAnomaly(t, dbsherlock.LockContention, 1)
	stale, err := a.Diagnose(context.Background(),
		dbsherlock.DiagnoseRequest{Dataset: ds3, Abnormal: abn3, CaptureState: true})
	if err != nil {
		t.Fatal(err)
	}
	step := make([]float64, ds3.Rows())
	abn3.ForEach(func(i int) { step[i] = 1 })
	if err := ds3.AddNumeric("step", step); err != nil {
		t.Fatal(err)
	}
	wantGrown, err := a.Diagnose(context.Background(),
		dbsherlock.DiagnoseRequest{Dataset: ds3, Abnormal: abn3})
	if err != nil {
		t.Fatal(err)
	}
	if len(wantGrown.Explanation.Predicates) != len(stale.Explanation.Predicates)+1 {
		t.Fatalf("the added column should add one predicate: %d before, %d after",
			len(stale.Explanation.Predicates), len(wantGrown.Explanation.Predicates))
	}
	gotGrown, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{
		Dataset: ds3, Abnormal: abn3, Reuse: stale.State})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTrace(gotGrown), stripTrace(wantGrown)) {
		t.Fatalf("reuse after a mutation served the stale answer: %d predicates, cold run %d",
			len(gotGrown.Explanation.Predicates), len(wantGrown.Explanation.Predicates))
	}
}

// TestDiagnoseTraceCountsSpaces: a diagnosis records the partition
// spaces it built into the request's trace. A cold diagnosis builds
// each attribute's space once, when it constructs the evaluator, and
// records the same count whether or not it captures state; a diagnosis
// reusing that state builds nothing.
func TestDiagnoseTraceCountsSpaces(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			a := learnedAnalyzer(t, workers, false)
			ds, abn := simulateAnomaly(t, dbsherlock.LockContention, 99)
			diagnose := func(req dbsherlock.DiagnoseRequest) (*dbsherlock.DiagnoseResult, int64) {
				t.Helper()
				req.Dataset, req.Abnormal, req.Trace = ds, abn, true
				res, err := a.Diagnose(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				return res, res.Trace.Counters["spaces_built"]
			}
			_, plainBuilt := diagnose(dbsherlock.DiagnoseRequest{})
			cold, coldBuilt := diagnose(dbsherlock.DiagnoseRequest{CaptureState: true})
			_, hotBuilt := diagnose(dbsherlock.DiagnoseRequest{Reuse: cold.State})
			if plainBuilt == 0 {
				t.Fatal("a cold diagnosis recorded no partition-space builds")
			}
			if plainBuilt != int64(ds.NumAttrs()) {
				t.Errorf("a cold diagnosis built %d partition spaces for %d attributes, want each built once by Algorithm 1 and none by ranking",
					plainBuilt, ds.NumAttrs())
			}
			if coldBuilt != plainBuilt {
				t.Errorf("capturing run counted %d built, plain run %d", coldBuilt, plainBuilt)
			}
			if hotBuilt != 0 {
				t.Errorf("reused run counted %d built, want 0", hotBuilt)
			}
		})
	}
}

// TestDiagnosisStateSizeBytes: a captured state holds every attribute's
// partition space whatever ranking probes, so its size estimate is the
// same with and without learned models, and a hot re-rank, which builds
// nothing, leaves it unchanged.
func TestDiagnosisStateSizeBytes(t *testing.T) {
	ds, abn := simulateAnomaly(t, dbsherlock.LockContention, 99)
	capture := func(a *dbsherlock.Analyzer) *dbsherlock.DiagnosisState {
		t.Helper()
		res, err := a.Diagnose(context.Background(),
			dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn, CaptureState: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.State
	}
	learned := learnedAnalyzer(t, 2, false)
	st := capture(learned)
	size := st.SizeBytes()
	if unranked := capture(dbsherlock.MustNew(dbsherlock.WithTheta(0.05), dbsherlock.WithWorkers(2))).SizeBytes(); unranked != size {
		t.Errorf("state captured without models is %d bytes, with models %d: a state should hold every space either way", unranked, size)
	}
	if _, err := learned.Diagnose(context.Background(),
		dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn, Reuse: st}); err != nil {
		t.Fatal(err)
	}
	if got := st.SizeBytes(); got != size {
		t.Errorf("a hot re-rank changed the state's size %d -> %d", size, got)
	}
}

// TestDiagnoseReuseSeesNewModels: model ranking is never cached — a
// cause learned after the state was captured ranks on the very next
// reused diagnosis.
func TestDiagnoseReuseSeesNewModels(t *testing.T) {
	a := dbsherlock.MustNew(dbsherlock.WithTheta(0.05))
	ds, abn := simulateAnomaly(t, dbsherlock.LockContention, 99)
	captured, err := a.Diagnose(context.Background(),
		dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn, CaptureState: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(captured.AllCauses) != 0 {
		t.Fatalf("no models yet, got %v", captured.AllCauses)
	}
	dsL, abnL := simulateAnomaly(t, dbsherlock.LockContention, 10)
	if _, err := a.LearnCause("Lock Contention", dsL, abnL, nil); err != nil {
		t.Fatal(err)
	}
	hot, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{
		Dataset: ds, Abnormal: abn, Reuse: captured.State})
	if err != nil {
		t.Fatal(err)
	}
	if len(hot.AllCauses) != 1 || hot.AllCauses[0].Cause != "Lock Contention" {
		t.Fatalf("reused diagnosis missed the freshly learned model: %+v", hot.AllCauses)
	}
}

// TestDiagnoseReuseConcurrent: one captured state serves many
// concurrent diagnoses (run under -race) with identical output.
func TestDiagnoseReuseConcurrent(t *testing.T) {
	a := learnedAnalyzer(t, 4, false)
	ds, abn := simulateAnomaly(t, dbsherlock.LockContention, 99)
	cold, err := a.Diagnose(context.Background(),
		dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn, CaptureState: true})
	if err != nil {
		t.Fatal(err)
	}
	want := stripTrace(cold)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				hot, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{
					Dataset: ds, Abnormal: abn, Reuse: cold.State})
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(stripTrace(hot), want) {
					errs <- fmt.Errorf("concurrent reused diagnosis diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
