package dbsherlock_test

import (
	"context"
	"fmt"
	"log"

	"dbsherlock"
)

// Example shows the core loop: simulate (or collect) statistics, select
// the abnormal region, and read the top-ranked predicate.
func Example() {
	cfg := dbsherlock.DefaultTestbed()
	cfg.Seed = 7
	ds, abnormal, err := dbsherlock.Simulate(cfg, 0, 180, []dbsherlock.Injection{
		{Kind: dbsherlock.LockContention, Start: 100, Duration: 60},
	})
	if err != nil {
		log.Fatal(err)
	}
	a := dbsherlock.MustNew()
	res, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abnormal})
	if err != nil {
		log.Fatal(err)
	}
	expl := res.Explanation
	fmt.Printf("predicates: %d, top separation power: %.2f\n",
		len(expl.Predicates), expl.Ranked[0].SeparationPower)
	// Output:
	// predicates: 30, top separation power: 0.95
}

// ExampleAnalyzer_LearnCause shows the feedback loop: after the DBA
// confirms a cause, future anomalies are diagnosed by name.
func ExampleAnalyzer_LearnCause() {
	a := dbsherlock.MustNew(dbsherlock.WithTheta(0.05))
	for seed := int64(1); seed <= 2; seed++ {
		cfg := dbsherlock.DefaultTestbed()
		cfg.Seed = seed
		ds, abnormal, err := dbsherlock.Simulate(cfg, 0, 180, []dbsherlock.Injection{
			{Kind: dbsherlock.NetworkCongestion, Start: 100, Duration: 60},
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := a.LearnCause("Network Congestion", ds, abnormal, nil); err != nil {
			log.Fatal(err)
		}
	}

	cfg := dbsherlock.DefaultTestbed()
	cfg.Seed = 9
	ds, abnormal, err := dbsherlock.Simulate(cfg, 0, 180, []dbsherlock.Injection{
		{Kind: dbsherlock.NetworkCongestion, Start: 100, Duration: 60},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abnormal})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("diagnosis:", res.Explanation.Causes[0].Cause)
	// Output:
	// diagnosis: Network Congestion
}

// ExampleAnalyzer_Detect shows automatic anomaly detection on a long
// trace where the user has not pinpointed the anomaly.
func ExampleAnalyzer_Detect() {
	cfg := dbsherlock.DefaultTestbed()
	cfg.Seed = 23
	ds, truth, err := dbsherlock.Simulate(cfg, 0, 600, []dbsherlock.Injection{
		{Kind: dbsherlock.CPUSaturation, Start: 300, Duration: 60},
	})
	if err != nil {
		log.Fatal(err)
	}
	a := dbsherlock.MustNew()
	res, err := a.Detect(ds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found %d of the %d anomalous seconds\n",
		res.Abnormal.Overlap(truth), truth.Count())
	// Output:
	// found 60 of the 60 anomalous seconds
}

// ExampleAnalyzer_Recommend shows the remediation layer: built-in
// remedies plus a recorded DBA fix, gated by diagnosis confidence.
func ExampleAnalyzer_Recommend() {
	a := dbsherlock.MustNew(dbsherlock.WithTheta(0.05))
	cfg := dbsherlock.DefaultTestbed()
	cfg.Seed = 31
	ds, abnormal, err := dbsherlock.Simulate(cfg, 0, 180, []dbsherlock.Injection{
		{Kind: dbsherlock.WorkloadSpike, Start: 100, Duration: 60},
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := a.LearnCause("Workload Spike", ds, abnormal, nil); err != nil {
		log.Fatal(err)
	}
	if err := a.RecordRemediation("Workload Spike", "throttled tenant 42"); err != nil {
		log.Fatal(err)
	}
	ranked, err := a.RankAllContext(context.Background(), ds, abnormal, nil)
	if err != nil {
		log.Fatal(err)
	}
	recs, err := a.Recommend(ranked, dbsherlock.DefaultActionPolicy())
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range recs {
		fmt.Printf("[%s] %s\n", r.Source, r.Action.Name)
	}
	// Output:
	// [builtin] throttle-tenants
	// [builtin] scale-out
	// [learned] dba-remediation
}
