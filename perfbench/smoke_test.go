package main

import (
	"math"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmokeEveryWorkload runs every workload at a tiny operation count,
// untraced and traced, against a freshly built daemon, with every output
// check on: answer equality, expected alerts and durability after
// SIGKILL. It keeps the benchmark from rotting silently:
//
//	cd perfbench && go test ./...
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dbsherlockd")
	if out, err := exec.Command("go", "build", "-o", bin, "dbsherlock/cmd/dbsherlockd").CombinedOutput(); err != nil {
		t.Fatalf("build daemon: %v\n%s", err, out)
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			o := &options{
				workload: name, seed: 7, seconds: 1, trace: trace,
				daemon: bin, work: filepath.Join(dir, "work"), scale: 0.02, setups: 2,
			}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := []string{"setup_s", "p50_ms", "tail_ms", "ops_per_s", "cpu_ms_per_op", "peak_rss_mb"}
			if trace {
				want = want[:0]
				for _, m := range layerTable {
					want = append(want, m.name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", name, trace, m, v, ok)
				}
				// CPU time advances in 10-ms clock ticks, too coarse for
				// a handful of cache hits.
				if !trace && v.Value <= 0 && m != "cpu_ms_per_op" {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
				}
			}
		}
	}
}
