package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"dbsherlock"
)

func TestSummarizeRuns(t *testing.T) {
	tests := []struct {
		in   []int
		want string
	}{
		{nil, "(none)"},
		{[]int{3}, "3"},
		{[]int{3, 4, 5}, "3-5"},
		{[]int{1, 3, 4, 9}, "1, 3-4, 9"},
		{[]int{0, 1, 5, 6, 7, 20}, "0-1, 5-7, 20"},
	}
	for _, tc := range tests {
		if got := summarizeRuns(tc.in); got != tc.want {
			t.Errorf("summarizeRuns(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestLearnDiagnoseRoundTrip drives the two stateful subcommands
// end-to-end through temp files.
func TestLearnDiagnoseRoundTrip(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "lock.csv")
	modelPath := filepath.Join(dir, "models.json")

	cfg := dbsherlock.DefaultTestbed()
	cfg.Seed = 99
	ds, _, err := dbsherlock.Simulate(cfg, 0, 190, []dbsherlock.Injection{
		{Kind: dbsherlock.LockContention, Start: 120, Duration: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := dbsherlock.WriteCSV(f, ds); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := runLearn(context.Background(), []string{
		"-in", csvPath, "-from", "120", "-to", "180",
		"-cause", "Lock Contention", "-remedy", "spread the district",
		"-models", modelPath,
	}); err != nil {
		t.Fatalf("learn: %v", err)
	}
	if _, err := os.Stat(modelPath); err != nil {
		t.Fatalf("model store not written: %v", err)
	}
	if err := runDiagnose(context.Background(), []string{
		"-in", csvPath, "-from", "120", "-to", "180", "-models", modelPath,
	}); err != nil {
		t.Fatalf("diagnose: %v", err)
	}
	// Diagnosing against an empty store must fail clearly.
	if err := runDiagnose(context.Background(), []string{
		"-in", csvPath, "-from", "120", "-to", "180",
		"-models", filepath.Join(dir, "missing.json"),
	}); err == nil {
		t.Error("diagnose with no models: want error")
	}
}

func TestLearnValidation(t *testing.T) {
	if err := runLearn(context.Background(), []string{"-in", "x.csv"}); err == nil {
		t.Error("learn without -cause/-from/-to: want error")
	}
}

// writeTrace materializes a small simulated trace for CLI-path tests.
func writeTrace(t *testing.T, seconds int) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	cfg := dbsherlock.DefaultTestbed()
	cfg.Seed = 123
	ds, _, err := dbsherlock.Simulate(cfg, 0, seconds, []dbsherlock.Injection{
		{Kind: dbsherlock.CPUSaturation, Start: seconds / 2, Duration: seconds / 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dbsherlock.WriteCSV(f, ds); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPlotAndDetectAndExplain(t *testing.T) {
	trace := writeTrace(t, 200)
	if err := runPlot([]string{"-in", trace, "-width", "40", "-height", "8", "-mark", "100:150"}); err != nil {
		t.Errorf("plot: %v", err)
	}
	if err := runPlot([]string{"-in", trace, "-mark", "nonsense"}); err == nil {
		t.Error("bad -mark: want error")
	}
	if err := runPlot([]string{"-in", trace, "-attr", "ghost"}); err == nil {
		t.Error("plot with missing attr: want error")
	}
	if err := runDetect(context.Background(), []string{"-in", trace}); err != nil {
		t.Errorf("detect: %v", err)
	}
	if err := runExplain(context.Background(), []string{"-in", trace, "-from", "100", "-to", "150", "-rules"}); err != nil {
		t.Errorf("explain: %v", err)
	}
	if err := runExplain(context.Background(), []string{"-in", trace}); err == nil {
		t.Error("explain without region: want error")
	}
	if err := runExplain(context.Background(), []string{"-in", trace, "-auto"}); err != nil {
		// Auto-detection can legitimately find nothing on a short trace;
		// only a hard failure is a bug.
		t.Logf("explain -auto: %v (acceptable on short traces)", err)
	}
}

func TestRunCommandsRequireInput(t *testing.T) {
	if err := runPlot(nil); err == nil {
		t.Error("plot without -in: want error")
	}
	if err := runDetect(context.Background(), nil); err == nil {
		t.Error("detect without -in: want error")
	}
	if err := runExplain(context.Background(), nil); err == nil {
		t.Error("explain without -in: want error")
	}
	if err := runDiagnose(context.Background(), nil); err == nil {
		t.Error("diagnose without -in: want error")
	}
}
