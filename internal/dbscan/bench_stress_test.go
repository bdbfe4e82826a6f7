package dbscan

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
)

// Stress benchmarks for the computed-rows path, the one a pass takes
// above matrixCap points. The naive O(n^2) pipeline at n=20000 runs for
// tens of seconds per iteration, so it only runs when
// DBSHERLOCK_BENCH_FULL is set (the Makefile's bench-detect target
// documents this); the indexed pipeline, which computes rows without
// allocating or sorting them, runs unconditionally.
func benchPipelineNaive(b *testing.B, n int) {
	pts := genPoints(rand.New(rand.NewSource(int64(n))), n, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lk := KDist(pts, 3)
		eps := lk[len(lk)-1] / 4
		if floor := 1.5 * lk[len(lk)/2]; floor > eps {
			eps = floor
		}
		refCluster(pts, eps, 3)
	}
}

func benchPipelineIndexed(b *testing.B, n int) {
	pts := genPoints(rand.New(rand.NewSource(int64(n))), n, 3)
	var lk []float64
	var labels []int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lk = KDistInto(lk[:0], pts, 3)
		eps := lk[len(lk)-1] / 4
		if floor := 1.5 * lk[len(lk)/2]; floor > eps {
			eps = floor
		}
		labels = ClusterInto(labels[:0], pts, eps, 3)
	}
}

func BenchmarkPipelineStress(b *testing.B) {
	full := os.Getenv("DBSHERLOCK_BENCH_FULL") != ""
	for _, n := range []int{5000, 20000} {
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			if n > 5000 && !full {
				b.Skip("set DBSHERLOCK_BENCH_FULL=1 to run the O(n^2) reference at this size")
			}
			benchPipelineNaive(b, n)
		})
		b.Run(fmt.Sprintf("indexed/n=%d", n), func(b *testing.B) {
			benchPipelineIndexed(b, n)
		})
	}
}
