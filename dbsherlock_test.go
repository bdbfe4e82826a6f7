package dbsherlock_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dbsherlock"
)

// simulateAnomaly produces a 3-minute trace with one anomaly in the
// middle.
func simulateAnomaly(t *testing.T, kind dbsherlock.AnomalyKind, seed int64) (*dbsherlock.Dataset, *dbsherlock.Region) {
	t.Helper()
	cfg := dbsherlock.DefaultTestbed()
	cfg.Seed = seed
	ds, abn, err := dbsherlock.Simulate(cfg, 1000, 180, []dbsherlock.Injection{
		{Kind: kind, Start: 100, Duration: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, abn
}

func TestExplainProducesPredicates(t *testing.T) {
	ds, abn := simulateAnomaly(t, dbsherlock.LockContention, 1)
	a := dbsherlock.MustNew()
	res, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn})
	if err != nil {
		t.Fatal(err)
	}
	expl := res.Explanation
	if len(expl.Predicates) == 0 {
		t.Fatal("no predicates")
	}
	found := false
	for _, p := range expl.Predicates {
		if strings.Contains(p.Attr, "row_lock") {
			found = true
		}
		if sp := dbsherlock.SeparationPower(p, ds, abn, abn.Complement()); sp < 0.2 {
			t.Errorf("predicate %v has weak separation power %.2f", p, sp)
		}
	}
	if !found {
		t.Errorf("lock contention predicates lack a row-lock attribute: %v", expl.Predicates)
	}
	if len(expl.Causes) != 0 {
		t.Errorf("no models learned yet, got causes %v", expl.Causes)
	}
}

func TestLearnCauseThenDiagnose(t *testing.T) {
	a := dbsherlock.MustNew(dbsherlock.WithTheta(0.05))
	// Learn from two instances per cause (merging happens internally).
	for _, kind := range []dbsherlock.AnomalyKind{dbsherlock.LockContention, dbsherlock.NetworkCongestion} {
		for seed := int64(10); seed < 12; seed++ {
			ds, abn := simulateAnomaly(t, kind, seed)
			if _, err := a.LearnCause(kind.String(), ds, abn, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := a.Causes(); len(got) != 2 {
		t.Fatalf("Causes = %v", got)
	}
	if m := a.Model(dbsherlock.LockContention.String()); m == nil || m.Merged != 2 {
		t.Fatalf("lock model = %+v, want merged from 2 diagnoses", m)
	}

	// A fresh lock-contention anomaly must rank Lock Contention first.
	ds, abn := simulateAnomaly(t, dbsherlock.LockContention, 99)
	res, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn})
	if err != nil {
		t.Fatal(err)
	}
	expl := res.Explanation
	if len(expl.Causes) == 0 || expl.Causes[0].Cause != dbsherlock.LockContention.String() {
		t.Fatalf("causes = %+v, want Lock Contention first", expl.Causes)
	}
	if expl.Causes[0].Confidence <= 0.2 {
		t.Errorf("confidence = %v, want above lambda", expl.Causes[0].Confidence)
	}
}

func TestExplainValidation(t *testing.T) {
	a := dbsherlock.MustNew()
	ds, abn := simulateAnomaly(t, dbsherlock.CPUSaturation, 3)
	if _, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Abnormal: abn}); err == nil {
		t.Error("nil dataset: want error")
	}
	if _, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds}); err == nil {
		t.Error("nil abnormal region: want error")
	}
	if _, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: dbsherlock.NewRegion(ds.Rows())}); err == nil {
		t.Error("empty abnormal region: want error")
	}
	if _, err := a.LearnCause("", ds, abn, nil); err == nil {
		t.Error("empty cause: want error")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := dbsherlock.New(dbsherlock.WithTheta(2)); err == nil {
		t.Error("theta 2: want error")
	}
	if _, err := dbsherlock.New(dbsherlock.WithLambda(-1)); err == nil {
		t.Error("lambda -1: want error")
	}
	bad := dbsherlock.Params{NumPartitions: 1, Theta: 0.2, Delta: 10}
	if _, err := dbsherlock.New(dbsherlock.WithParams(bad)); err == nil {
		t.Error("bad params: want error")
	}
	if _, err := dbsherlock.New(dbsherlock.WithDomainKnowledge([]dbsherlock.Rule{
		{Cause: "a", Effect: "b"}, {Cause: "b", Effect: "a"},
	})); err == nil {
		t.Error("reversed rules: want error")
	}
}

func TestDomainKnowledgePruning(t *testing.T) {
	ds, abn := simulateAnomaly(t, dbsherlock.IOSaturation, 4)
	plain := dbsherlock.MustNew()
	withRules := dbsherlock.MustNew(dbsherlock.WithDomainKnowledge(dbsherlock.MySQLLinuxRules()))
	pres, err := plain.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn})
	if err != nil {
		t.Fatal(err)
	}
	rres, err := withRules.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn})
	if err != nil {
		t.Fatal(err)
	}
	pe, re := pres.Explanation, rres.Explanation
	if len(re.Predicates)+len(re.Pruned) != len(pe.Predicates) {
		t.Errorf("pruning bookkeeping: %d kept + %d pruned != %d plain",
			len(re.Predicates), len(re.Pruned), len(pe.Predicates))
	}
}

func TestDetectFindsInjectedWindow(t *testing.T) {
	cfg := dbsherlock.DefaultTestbed()
	cfg.Seed = 5
	ds, truth, err := dbsherlock.Simulate(cfg, 1000, 600, []dbsherlock.Injection{
		{Kind: dbsherlock.NetworkCongestion, Start: 300, Duration: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := dbsherlock.MustNew()
	res, err := a.Detect(ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Abnormal.Overlap(truth) < 30 {
		t.Errorf("detector found %d/60 of the injected window", res.Abnormal.Overlap(truth))
	}
	if len(res.SelectedAttrs) == 0 {
		t.Error("no attributes selected")
	}
}

func TestCSVRoundTripThroughFacade(t *testing.T) {
	ds, _ := simulateAnomaly(t, dbsherlock.DatabaseBackup, 6)
	var buf bytes.Buffer
	if err := dbsherlock.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := dbsherlock.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows() != ds.Rows() || back.NumAttrs() != ds.NumAttrs() {
		t.Errorf("round trip shape %dx%d vs %dx%d", back.Rows(), back.NumAttrs(), ds.Rows(), ds.NumAttrs())
	}
}

func TestMergeModelsFacade(t *testing.T) {
	p := func(attr string, lower float64) dbsherlock.Predicate {
		return dbsherlock.Predicate{Attr: attr, Type: 0, HasLower: true, Lower: lower}
	}
	m1 := dbsherlock.NewCausalModel("X", []dbsherlock.Predicate{p("a", 10)})
	m2 := dbsherlock.NewCausalModel("X", []dbsherlock.Predicate{p("a", 5)})
	merged, err := dbsherlock.MergeModels([]*dbsherlock.CausalModel{m1, m2})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Predicates[0].Lower != 5 {
		t.Errorf("merged lower = %v, want 5", merged.Predicates[0].Lower)
	}
}

func TestAnomalyKindsComplete(t *testing.T) {
	kinds := dbsherlock.AnomalyKinds()
	if len(kinds) != 10 {
		t.Fatalf("AnomalyKinds = %d, want 10", len(kinds))
	}
}

func TestExplainRanksPredicatesBySeparationPower(t *testing.T) {
	ds, abn := simulateAnomaly(t, dbsherlock.PoorlyWrittenQuery, 8)
	a := dbsherlock.MustNew()
	res, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn})
	if err != nil {
		t.Fatal(err)
	}
	expl := res.Explanation
	if len(expl.Ranked) != len(expl.Predicates) {
		t.Fatalf("ranked %d vs predicates %d", len(expl.Ranked), len(expl.Predicates))
	}
	for i := 1; i < len(expl.Ranked); i++ {
		if expl.Ranked[i].SeparationPower > expl.Ranked[i-1].SeparationPower {
			t.Fatal("ranked predicates not sorted by separation power")
		}
	}
	if top := expl.Ranked[0].SeparationPower; top < 0.8 {
		t.Errorf("top predicate separation power = %v, want high", top)
	}
}
