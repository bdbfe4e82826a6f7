package dbsherlock_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dbsherlock"
)

func TestSaveLoadModelsThroughFacade(t *testing.T) {
	a := dbsherlock.MustNew(dbsherlock.WithTheta(0.05))
	ds, abn := simulateAnomaly(t, dbsherlock.LockContention, 21)
	if _, err := a.LearnCause("Lock Contention", ds, abn, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.RecordRemediation("Lock Contention", "spread the hot district"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := a.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "spread the hot district") {
		t.Error("remediation not persisted")
	}

	fresh := dbsherlock.MustNew()
	if err := fresh.LoadModels(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Causes(); len(got) != 1 || got[0] != "Lock Contention" {
		t.Fatalf("loaded causes = %v", got)
	}
	// The loaded models diagnose a fresh anomaly of the same cause.
	ds2, abn2 := simulateAnomaly(t, dbsherlock.LockContention, 22)
	res, err := fresh.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds2, Abnormal: abn2})
	if err != nil {
		t.Fatal(err)
	}
	expl := res.Explanation
	if len(expl.Causes) == 0 || expl.Causes[0].Cause != "Lock Contention" {
		t.Errorf("loaded model failed to diagnose: %+v", expl.Causes)
	}
}

func TestRecordRemediationValidation(t *testing.T) {
	a := dbsherlock.MustNew()
	if err := a.RecordRemediation("nope", "x"); err == nil {
		t.Error("unknown cause: want error")
	}
	ds, abn := simulateAnomaly(t, dbsherlock.CPUSaturation, 23)
	if _, err := a.LearnCause("CPU Saturation", ds, abn, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.RecordRemediation("CPU Saturation", ""); err == nil {
		t.Error("empty remediation: want error")
	}
}

func TestRecommendEndToEnd(t *testing.T) {
	a := dbsherlock.MustNew(dbsherlock.WithTheta(0.05))
	for seed := int64(31); seed < 33; seed++ {
		ds, abn := simulateAnomaly(t, dbsherlock.WorkloadSpike, seed)
		if _, err := a.LearnCause(dbsherlock.WorkloadSpike.String(), ds, abn, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.RecordRemediation("Workload Spike", "ask team X to back off"); err != nil {
		t.Fatal(err)
	}

	ds, abn := simulateAnomaly(t, dbsherlock.WorkloadSpike, 77)
	res, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn})
	if err != nil {
		t.Fatal(err)
	}
	expl := res.Explanation
	if len(expl.Causes) == 0 {
		t.Fatal("no causes diagnosed")
	}
	recs, err := a.Recommend(expl.Causes, dbsherlock.DefaultActionPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	var sawBuiltin, sawLearned bool
	for _, r := range recs {
		if r.Cause != "Workload Spike" {
			continue
		}
		if r.Action.Name == "throttle-tenants" {
			sawBuiltin = true
		}
		if r.Action.Description == "ask team X to back off" {
			sawLearned = true
		}
	}
	if !sawBuiltin || !sawLearned {
		t.Errorf("builtin=%v learned=%v in %+v", sawBuiltin, sawLearned, recs)
	}
}

func TestRecommendBadPolicy(t *testing.T) {
	a := dbsherlock.MustNew()
	if _, err := a.Recommend(nil, dbsherlock.ActionPolicy{MinConfidence: 0.9, AutoConfidence: 0.1}); err == nil {
		t.Error("bad policy: want error")
	}
}

func TestDetectUsingPluggableDetectors(t *testing.T) {
	cfg := dbsherlock.DefaultTestbed()
	cfg.Seed = 41
	ds, truth, err := dbsherlock.Simulate(cfg, 0, 400, []dbsherlock.Injection{
		{Kind: dbsherlock.NetworkCongestion, Start: 200, Duration: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := dbsherlock.MustNew()
	for _, d := range []dbsherlock.Detector{
		dbsherlock.NewDBSCANDetector(),
		dbsherlock.NewThresholdDetector(dbsherlock.AvgLatencyAttr, 3),
		dbsherlock.NewPerfAugurDetector(dbsherlock.AvgLatencyAttr),
	} {
		region, ok, err := a.DetectUsing(ds, d)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if !ok {
			t.Fatalf("%s: found nothing", d.Name())
		}
		if region.Overlap(truth) < 30 {
			t.Errorf("%s: overlap %d/60", d.Name(), region.Overlap(truth))
		}
	}
	if _, _, err := a.DetectUsing(nil, dbsherlock.NewDBSCANDetector()); err == nil {
		t.Error("nil dataset: want error")
	}
	if _, _, err := a.DetectUsing(ds, nil); err == nil {
		t.Error("nil detector: want error")
	}
}

func TestDetectorByName(t *testing.T) {
	for name, want := range map[string]string{
		"":          "dbscan",
		"dbscan":    "dbscan",
		"threshold": "threshold(" + dbsherlock.AvgLatencyAttr + ")",
		"perfaugur": "perfaugur",
	} {
		d, err := dbsherlock.DetectorByName(name)
		if err != nil || d == nil || d.Name() != want {
			t.Errorf("DetectorByName(%q) = %v, %v; want %s", name, d, err, want)
		}
	}
	if _, err := dbsherlock.DetectorByName("nope"); err == nil {
		t.Error("unknown detector: want error")
	}
}
