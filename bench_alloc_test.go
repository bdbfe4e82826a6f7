// Benchmarks and regression gates for the zero-allocation diagnosis hot
// path: the full Explain pipeline (Algorithm 1 over ~116 attributes plus
// Equation 3 ranking of ten learned causal models) must stay within a
// pinned allocation ceiling per call. The committed baseline lives in
// BENCH_alloc.json; regenerate it with `make bench-alloc`.
//
// The memory-discipline contract has two enforced halves:
//
//   - TestExplainAllocCeiling pins allocs/op with testing.AllocsPerRun
//     (run by `make ci` via the alloc-gate target; skipped under -race
//     because sync.Pool intentionally drops items at random there);
//   - TestExplainGoldenAcrossWorkersAndTracing proves the optimization
//     is purely mechanical: predicates, separation powers, confidences,
//     and cause rankings are identical at workers=1/2/8, traced and
//     untraced. The byte-level equivalence against the seed algorithm
//     itself is pinned in internal/core/golden_ref_test.go.
package dbsherlock_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"dbsherlock"
)

// explainAllocCeiling is the enforced per-Explain allocation budget on
// the small synthetic trace with ten causal models loaded, sequential
// path. The seed pipeline performed ~3,425 allocs/op; the scratch-arena
// rewrite brought it to ~490, and the columnar-kernel/prepared-index
// rewrite held it there (~501) while roughly halving ns/op. Letting
// Algorithm 1 fill the ranking evaluator, which keeps one slot per
// column, removed the second build of every probed space: 277. Building
// every space at the evaluator's construction, so ranking only scores,
// made it 274. The ceiling keeps about 5% headroom for benign drift
// while still failing the gate long before the old regime; when the
// measurement drifts within 10% of it, the gate prints a
// benchstat-style note so the squeeze is visible in `make ci` output
// before the gate trips.
const explainAllocCeiling = 288

// BenchmarkExplainAllocs measures ns/op and allocs/op of the full
// Explain pipeline on both trace scales (see BENCH_alloc.json for the
// committed before/after numbers).
func BenchmarkExplainAllocs(b *testing.B) {
	parallelSetup(b)
	for _, sc := range benchScales {
		data := parallelData[sc.name]
		a := benchAnalyzer(b, 0, true)
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: data.ds, Abnormal: data.abn}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestExplainAllocCeiling enforces the allocation budget of one full
// diagnosis. If this fails, a change reintroduced per-attribute garbage
// on the hot path — see DESIGN.md §10 before raising the ceiling.
func TestExplainAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race (sync.Pool drops items); make ci runs this gate without -race")
	}
	parallelSetup(t)
	data := parallelData["small"]
	a := benchAnalyzer(t, 1, true)
	// Warm once so the one-time prepared-index build (cached by dataset
	// generation, shared across requests) doesn't smear into the
	// steady-state per-request count.
	req := dbsherlock.DiagnoseRequest{Dataset: data.ds, Abnormal: data.abn}
	if _, err := a.Diagnose(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		_, err = a.Diagnose(context.Background(), req)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > explainAllocCeiling {
		t.Errorf("Explain allocates %.0f objects per call, ceiling is %d", allocs, explainAllocCeiling)
	} else if allocs >= 0.9*explainAllocCeiling {
		// Benchstat-style regression note, printed (not t.Logf, which -v
		// alone surfaces) so `make ci` shows the squeeze while the gate
		// still passes.
		fmt.Printf("alloc-gate: Explain/small %.0f allocs/op vs ceiling %d (headroom %+.1f%%) — within 10%%, investigate drift before the gate trips\n",
			allocs, explainAllocCeiling, 100*(float64(explainAllocCeiling)-allocs)/allocs)
	}
}

// TestExplainGoldenAcrossWorkersAndTracing pins that worker count and
// tracing change nothing observable: every combination must produce a
// deeply equal Explanation (trace snapshot aside).
func TestExplainGoldenAcrossWorkersAndTracing(t *testing.T) {
	parallelSetup(t)
	for _, sc := range benchScales {
		data := parallelData[sc.name]
		var base *dbsherlock.Explanation
		var baseName string
		for _, workers := range []int{1, 2, 8} {
			for _, traced := range []bool{false, true} {
				name := fmt.Sprintf("%s/workers=%d/traced=%v", sc.name, workers, traced)
				a := benchAnalyzer(t, workers, true)
				res, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: data.ds, Abnormal: data.abn, Trace: traced})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				expl := res.Explanation
				if traced && expl.Trace == nil {
					t.Errorf("%s: traced run carries no snapshot", name)
				}
				cp := *expl
				cp.Trace = nil
				if base == nil {
					if len(cp.Predicates) == 0 {
						t.Fatalf("%s: golden baseline produced no predicates", name)
					}
					base, baseName = &cp, name
					continue
				}
				if !reflect.DeepEqual(*base, cp) {
					t.Errorf("%s diverges from %s:\nbase: %+v\ngot:  %+v", name, baseName, *base, cp)
				}
			}
		}
	}
}
