package dbsherlock_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"dbsherlock"
)

// bigTrace is a long trace so a diagnosis has enough work in flight for
// a cancellation to land mid-computation.
func bigTrace(t *testing.T) (*dbsherlock.Dataset, *dbsherlock.Region) {
	t.Helper()
	cfg := dbsherlock.DefaultTestbed()
	cfg.Seed = 7
	ds, abn, err := dbsherlock.Simulate(cfg, 1000, 1800, []dbsherlock.Injection{
		{Kind: dbsherlock.LockContention, Start: 600, Duration: 600},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, abn
}

// TestDiagnoseCancellationIsPrompt pins the tentpole latency contract:
// cancelling mid-diagnosis returns ctx.Err() well inside 100ms, because
// the engine checks the context between work items rather than only at
// stage boundaries.
func TestDiagnoseCancellationIsPrompt(t *testing.T) {
	ds, abn := bigTrace(t)
	a := dbsherlock.MustNew(dbsherlock.WithWorkers(2))

	// Warm once so the cancelled run measures cancellation latency, not
	// first-call setup.
	if _, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Diagnose(ctx, dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn})
		done <- err
	}()
	// Let the diagnosis get going, then pull the plug.
	time.Sleep(2 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			// The run beat the cancel; that's legal but proves nothing.
			t.Skip("diagnosis finished before the cancel landed")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("cancellation took %v, want < 100ms", took)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("diagnosis did not return after cancel")
	}
}

// TestExplainContextCancelledUpFront: an already-cancelled context never
// starts the computation.
func TestExplainContextCancelledUpFront(t *testing.T) {
	ds, abn := simulateAnomaly(t, dbsherlock.LockContention, 31)
	a := dbsherlock.MustNew()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := a.Diagnose(ctx, dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("pre-cancelled diagnosis took %v, want immediate return", took)
	}
}

// TestDetectContextCancellation covers the Section 7 detection path.
func TestDetectContextCancellation(t *testing.T) {
	ds, _ := bigTrace(t)
	a := dbsherlock.MustNew()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.DetectContext(ctx, ds); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestLearnCauseContextCancellation covers the model-learning path.
func TestLearnCauseContextCancellation(t *testing.T) {
	ds, abn := simulateAnomaly(t, dbsherlock.NetworkCongestion, 32)
	a := dbsherlock.MustNew()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.LearnCauseContext(ctx, "X", ds, abn, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(a.Causes()) != 0 {
		t.Errorf("cancelled learn still stored a model: %v", a.Causes())
	}
}

// TestDiagnoseTimeout: a microscopic DiagnoseRequest.Timeout expires
// mid-flight and surfaces as context.DeadlineExceeded.
func TestDiagnoseTimeout(t *testing.T) {
	ds, abn := bigTrace(t)
	a := dbsherlock.MustNew()
	_, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{
		Dataset: ds, Abnormal: abn, Timeout: time.Nanosecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestDiagnoseMatchesLegacyAPI is the golden equivalence test for the
// API redesign: Diagnose's full ranking must equal a standalone
// RankAllContext, and its explanation must be reproducible call to
// call, at every worker count, with and without learned models.
func TestDiagnoseMatchesLegacyAPI(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, learned := range []bool{false, true} {
			a := dbsherlock.MustNew(dbsherlock.WithTheta(0.05), dbsherlock.WithWorkers(workers))
			if learned {
				for _, kind := range []dbsherlock.AnomalyKind{dbsherlock.LockContention, dbsherlock.NetworkCongestion} {
					for seed := int64(40); seed < 42; seed++ {
						ds, abn := simulateAnomaly(t, kind, seed)
						if _, err := a.LearnCause(kind.String(), ds, abn, nil); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			ds, abn := simulateAnomaly(t, dbsherlock.LockContention, 43)

			first, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn})
			if err != nil {
				t.Fatal(err)
			}
			ranked, err := a.RankAllContext(context.Background(), ds, abn, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Explanation, first.Explanation) {
				t.Errorf("workers=%d learned=%v: Diagnose explanation differs between calls", workers, learned)
			}
			if !reflect.DeepEqual(res.AllCauses, ranked) {
				t.Errorf("workers=%d learned=%v: Diagnose.AllCauses = %v, RankAllContext = %v",
					workers, learned, res.AllCauses, ranked)
			}
		}
	}
}

// TestDiagnoseTraceRequested: per-request tracing without the analyzer
// option.
func TestDiagnoseTraceRequested(t *testing.T) {
	ds, abn := simulateAnomaly(t, dbsherlock.LockContention, 44)
	a := dbsherlock.MustNew()
	res, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{
		Dataset: ds, Abnormal: abn, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Explanation.Trace == nil {
		t.Fatal("Trace:true returned no trace snapshot")
	}
	res, err = a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("untraced request leaked a trace")
	}
}

// TestDiagnoseNilContext: a nil ctx is treated as context.Background.
func TestDiagnoseNilContext(t *testing.T) {
	ds, abn := simulateAnomaly(t, dbsherlock.LockContention, 45)
	a := dbsherlock.MustNew()
	//lint:ignore SA1012 the nil-tolerant behavior is the contract under test
	res, err := a.Diagnose(nil, dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn}) //nolint:staticcheck
	if err != nil {
		t.Fatal(err)
	}
	if res.Explanation == nil {
		t.Fatal("nil explanation")
	}
}

// TestDetectUsingContextCancellation: the pluggable-detector path also
// honors an already-dead context, for every built-in detector.
func TestDetectUsingContextCancellation(t *testing.T) {
	ds, _ := simulateAnomaly(t, dbsherlock.LockContention, 46)
	a := dbsherlock.MustNew()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, d := range []dbsherlock.Detector{
		dbsherlock.NewDBSCANDetector(),
		dbsherlock.NewThresholdDetector(dbsherlock.AvgLatencyAttr, 3),
		dbsherlock.NewPerfAugurDetector(dbsherlock.AvgLatencyAttr),
	} {
		if _, _, err := a.DetectUsingContext(ctx, ds, d); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", d.Name(), err)
		}
	}
}
