// Benchmarks: one per table and figure of the paper's evaluation (at
// reduced repetitions — cmd/experiments runs the full scale), plus
// micro-benchmarks of the core operations. Run with:
//
//	go test -bench=. -benchmem
package dbsherlock_test

import (
	"context"
	"sync"
	"testing"

	"dbsherlock"
	"dbsherlock/internal/core"
	"dbsherlock/internal/detect"
	"dbsherlock/internal/experiments"
	"dbsherlock/internal/workload"
)

var (
	benchOnce sync.Once
	benchBat  *experiments.Battery
	benchErr  error
)

func benchBattery(b *testing.B) *experiments.Battery {
	b.Helper()
	benchOnce.Do(func() {
		benchBat, benchErr = experiments.GenerateBattery(workload.DefaultConfig())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchBat
}

func BenchmarkFig7SingleCausalModels(b *testing.B) {
	bat := benchBattery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig7(bat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8aMergedMargin(b *testing.B) {
	bat := benchBattery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8(bat, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8bMergedAccuracy(b *testing.B) {
	bat := benchBattery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8(bat, 3)
		if err != nil {
			b.Fatal(err)
		}
		if res.AvgTop1Pct < 50 {
			b.Fatalf("top-1 accuracy collapsed: %.1f", res.AvgTop1Pct)
		}
	}
}

func BenchmarkFig8cDatasetsSweep(b *testing.B) {
	bat := benchBattery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8c(bat, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9VersusPerfXplain(b *testing.B) {
	bat := benchBattery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig9(bat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10Compound(b *testing.B) {
	bat := benchBattery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig10(bat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2DomainKnowledge(b *testing.B) {
	bat := benchBattery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable2(bat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3UserStudy(b *testing.B) {
	bat := benchBattery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable3(bat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4TPCE(b *testing.B) {
	bat := benchBattery(b)
	tpce, err := experiments.GenerateBattery(workload.TPCEConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable4(bat, tpce, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Overfitting(b *testing.B) {
	bat := benchBattery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig11(bat, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Robustness(b *testing.B) {
	bat := benchBattery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable5(bat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6StepAblation(b *testing.B) {
	bat := benchBattery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable6(bat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12aPartitionSweep(b *testing.B) {
	bat := benchBattery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig12a(bat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12bDeltaSweep(b *testing.B) {
	bat := benchBattery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig12b(bat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12cThetaSweep(b *testing.B) {
	bat := benchBattery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig12c(bat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13KappaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig13(60); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7AutoDetection(b *testing.B) {
	bat := benchBattery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable7(bat, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable8SyntheticPruning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable8(300); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the core operations ---

func benchDataset(b *testing.B) (*dbsherlock.Dataset, *dbsherlock.Region) {
	b.Helper()
	cfg := dbsherlock.DefaultTestbed()
	cfg.Seed = 1
	ds, abn, err := dbsherlock.Simulate(cfg, 0, 190, []dbsherlock.Injection{
		{Kind: dbsherlock.LockContention, Start: 120, Duration: 60},
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds, abn
}

// BenchmarkPredicateGeneration measures Algorithm 1 over a full
// 116-attribute dataset (the paper's Section 4.6 complexity analysis:
// O(k(X+R))).
func BenchmarkPredicateGeneration(b *testing.B) {
	ds, abn := benchDataset(b)
	normal := abn.Complement()
	p := core.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Generate(ds, abn, normal, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelConfidence measures Equation (3) for a realistic merged
// model against a fresh anomaly.
func BenchmarkModelConfidence(b *testing.B) {
	ds, abn := benchDataset(b)
	normal := abn.Complement()
	p := core.DefaultParams()
	p.Theta = 0.05
	preds, err := core.Generate(ds, abn, normal, p)
	if err != nil {
		b.Fatal(err)
	}
	model := dbsherlock.NewCausalModel("Lock Contention", preds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Confidence(ds, abn, normal, p)
	}
}

// BenchmarkDiagnoseReuse measures a diagnosis-cache hit's engine work:
// Diagnose handed a captured DiagnosisState skips Algorithm 1, so what
// is left is Equation 3's ranking of the learned causes against the
// reused evaluator. As in perfbench's triage set-up, ten causes are
// learned at theta 0.05 (dbsherlockd's default), one per anomaly class
// from a 1,200-s trace each, and the first class's incident is re-read.
func BenchmarkDiagnoseReuse(b *testing.B) {
	a := dbsherlock.MustNew(dbsherlock.WithTheta(0.05))
	var req dbsherlock.DiagnoseRequest
	for i, kind := range dbsherlock.AnomalyKinds() {
		cfg := dbsherlock.DefaultTestbed()
		cfg.Seed = int64(100 + i)
		ds, abn, err := dbsherlock.Simulate(cfg, 0, 1200, []dbsherlock.Injection{
			{Kind: kind, Start: 300 + 50*i, Duration: 60 + 12*i},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.LearnCause(kind.String(), ds, abn, nil); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			req = dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn, CaptureState: true}
		}
	}
	ctx := context.Background()
	cold, err := a.Diagnose(ctx, req)
	if err != nil {
		b.Fatal(err)
	}
	req.CaptureState, req.Reuse = false, cold.State
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Diagnose(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutoDetect measures the Section 7 detector on a 10-minute
// trace.
func BenchmarkAutoDetect(b *testing.B) {
	cfg := dbsherlock.DefaultTestbed()
	cfg.Seed = 2
	ds, _, err := dbsherlock.Simulate(cfg, 0, 600, []dbsherlock.Injection{
		{Kind: dbsherlock.CPUSaturation, Start: 300, Duration: 60},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detect.Detect(ds, detect.DefaultParams())
	}
}

// BenchmarkSimulateSecond measures testbed throughput (simulated
// seconds per wall-clock second).
func BenchmarkSimulateSecond(b *testing.B) {
	cfg := dbsherlock.DefaultTestbed()
	sim := workload.NewSimulator(cfg)
	b.ResetTimer()
	sim.Run(0, b.N, nil)
}

// BenchmarkAblationConfidenceSpaces compares the paper's partition-space
// confidence (Equation 3) against the tuple-level variant (Equation 1)
// — the design choice DESIGN.md calls out. Equation 3 costs a partition
// build per attribute but is far more noise-robust (see
// causal.TestPartitionConfidenceMoreNoiseRobust).
func BenchmarkAblationConfidenceSpaces(b *testing.B) {
	ds, abn := benchDataset(b)
	normal := abn.Complement()
	p := core.DefaultParams()
	p.Theta = 0.05
	preds, err := core.Generate(ds, abn, normal, p)
	if err != nil {
		b.Fatal(err)
	}
	model := dbsherlock.NewCausalModel("Lock Contention", preds)
	b.Run("partition-eq3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			model.Confidence(ds, abn, normal, p)
		}
	})
	b.Run("tuple-eq1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			model.TupleConfidence(ds, abn, normal)
		}
	})
}
