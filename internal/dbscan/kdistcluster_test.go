package dbscan

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// detectorEps is the Section 7 detector's eps rule over the ascending
// k-dist list: max(Lk)/4, floored at 1.5·median(Lk), and no clustering
// unless it is positive. internal/detect owns the rule; this package
// cannot import its caller, so the tests carry a copy.
func detectorEps(lk []float64) (float64, bool) {
	eps := lk[len(lk)-1] / 4
	if floor := 1.5 * lk[len(lk)/2]; floor > eps {
		eps = floor
	}
	return eps, !(eps <= 0)
}

// checkPass runs KDistCluster over pts with dirty reused buffers and
// requires its k-dist list to equal the naive KDist bitwise and, when
// epsFrom accepts, its labels to equal refCluster at the chosen eps.
func checkPass(t testing.TB, pts []Point, minPts int, epsFrom func([]float64) (float64, bool)) {
	t.Helper()
	lkBuf := make([]float64, len(pts))
	labelBuf := make([]int, len(pts))
	for i := range pts {
		lkBuf[i] = -7
		labelBuf[i] = 77
	}
	dirty := append([]int(nil), labelBuf...)
	var eps float64
	var ok bool
	lk, labels, clustered := KDistCluster(lkBuf, labelBuf, pts, minPts, func(lk []float64) (float64, bool) {
		eps, ok = epsFrom(lk)
		return eps, ok
	})
	if want := KDist(pts, minPts); !float64sIdentical(lk, want) {
		t.Fatalf("n=%d minPts=%d: k-dist diverges\n got=%v\nwant=%v", len(pts), minPts, lk, want)
	}
	if clustered != ok {
		t.Fatalf("clustered = %v, epsFrom said %v", clustered, ok)
	}
	if !ok {
		if !reflect.DeepEqual(labels, dirty) {
			t.Fatalf("labels written although epsFrom declined: %v", labels)
		}
		return
	}
	if want := refCluster(pts, eps, minPts); !reflect.DeepEqual(labels, want) {
		t.Fatalf("n=%d minPts=%d eps=%g: labels diverge\n got=%v\nwant=%v", len(pts), minPts, eps, labels, want)
	}
}

// TestKDistClusterAcrossMatrixCap covers both sides of the matrix cap:
// up to matrixCap points DBSCAN reads the stored triangle, one more and
// it computes the distances it reads.
func TestKDistClusterAcrossMatrixCap(t *testing.T) {
	for _, n := range []int{matrixCap - 1, matrixCap, matrixCap + 1} {
		for _, d := range []int{2, 9} {
			pts := genPoints(rand.New(rand.NewSource(int64(n*d))), n, d)
			checkPass(t, pts, 3, detectorEps)
		}
	}
}

func TestKDistClusterGoldenAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 5, 31, 32, 64, 300, 600} {
		for _, d := range []int{1, 2, 3, 5, 8, 16} {
			pts := genPoints(rng, n, d)
			for _, minPts := range []int{1, 3, 5, n + 2} {
				checkPass(t, pts, minPts, detectorEps)
			}
		}
	}
}

func TestKDistClusterAdversarial(t *testing.T) {
	for _, tc := range adversarialCases() {
		t.Run(tc.name, func(t *testing.T) {
			checkPass(t, tc.pts, tc.minPts, func([]float64) (float64, bool) { return tc.eps, true })
			if len(tc.pts) > 0 {
				checkPass(t, tc.pts, tc.minPts, detectorEps)
			}
		})
	}
}

// TestSweepKeepsNearestAndTriangle pins what the sweep leaves behind,
// with two NaN payloads and ±Inf among the coordinates: every stored
// triangle entry is bitwise the squared sum of its pair in coordinate
// order, (points[j]−points[i])² for i < j, the rows holding a NaN are exactly the ones marked, and every
// other point's m-th smallest squared distance, for each m the pass can
// ask for, is the m-th entry of its sorted computed row. k runs from 1
// past keptMax to n−1 and n+2, where the farthest point is the answer.
func TestSweepKeepsNearestAndTriangle(t *testing.T) {
	otherNaN := math.Float64frombits(0x7ff8000000000bad)
	pts := genPoints(rand.New(rand.NewSource(31)), 37, 5)
	pts[3][1] = math.NaN()
	pts[4][1] = otherNaN
	pts[5][0], pts[6][0] = math.Inf(1), math.Inf(1)
	pts[6][2] = math.NaN()
	pts[7][4] = math.Inf(-1)
	pts[8][0], pts[8][3] = math.Inf(1), otherNaN
	pts[9][2] = math.Inf(1) // infinite, but no other point is in that coordinate: no NaN
	n := len(pts)
	for _, k := range []int{1, 3, 5, keptMax, keptMax + 1, n - 1, n + 2} {
		sc := &scratch{points: pts}
		sc.sweep(k, true)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				var want float64
				for c := range pts[i] {
					d := pts[j][c] - pts[i][c]
					want += d * d
				}
				if got := sc.tri[rowStart(i, n)+j-i-1]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("k=%d: tri[%d][%d] = %x, squared sum %x", k, i, j, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
		for i := range pts {
			row := make([]float64, 0, n-1)
			hasNaN := false
			for j := range pts {
				if j != i {
					s := sqDist(pts[i], pts[j])
					row = append(row, s)
					hasNaN = hasNaN || math.IsNaN(s)
				}
			}
			if sc.nanRow[i] != hasNaN {
				t.Fatalf("k=%d: nanRow[%d] = %v, row holds NaN: %v", k, i, sc.nanRow[i], hasNaN)
			}
			if hasNaN {
				continue
			}
			sort.Float64s(row)
			for m := 1; m <= min(k, n-1); m++ {
				if got := sc.smallest(i, m); math.Float64bits(got) != math.Float64bits(row[m-1]) {
					t.Fatalf("k=%d: point %d's %d-th smallest = %v, sorted row has %v", k, i, m, got, row[m-1])
				}
			}
		}
		if got, want := sc.kdist(nil, k), KDist(pts, k); !float64sIdentical(got, want) {
			t.Fatalf("k=%d: k-dist diverges\n got=%v\nwant=%v", k, got, want)
		}
	}
	if !math.IsNaN(Distance(pts[5], pts[6])) || math.IsNaN(Distance(pts[9], pts[0])) {
		t.Fatal("fixture no longer has the intended NaN and Inf pairs")
	}
}

// TestClusterQueueHoldsEachPointOnce runs DBSCAN above matrixCap with
// eps at the largest distance, where every point is core and within eps
// of every other, so a queue that took each core point's whole
// neighbour list would hold n² entries. Each point enters the queue
// once, so its capacity stays at the n it starts with.
func TestClusterQueueHoldsEachPointOnce(t *testing.T) {
	const n = 2 * matrixCap
	pts := genPoints(rand.New(rand.NewSource(3)), n, 3)
	sc := &scratch{points: pts}
	sc.sweep(3, false)
	eps := math.Sqrt(sc.smallest(0, n-1))
	for i := range pts {
		eps = math.Max(eps, math.Sqrt(sc.smallest(i, n-1)))
	}
	labels := sc.cluster(nil, eps, 3)
	if cap(sc.queue) > n {
		t.Fatalf("queue grew to %d entries for %d points", cap(sc.queue), n)
	}
	for i, l := range labels {
		if l != 0 {
			t.Fatalf("point %d labelled %d; at the largest distance every point is in cluster 0", i, l)
		}
	}
}

// FuzzKDistClusterEquivalence drives KDistCluster with the detector's
// eps rule over arbitrary point sets, up to 512 points in up to 12
// dimensions, with ±Inf and two NaN payloads among the coordinates. The
// k-dist list must equal the naive KDist bitwise and the labels must
// equal refCluster exactly. Wired into make fuzz-smoke.
func FuzzKDistClusterEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), uint8(3))
	f.Add([]byte{0, 0, 0, 0, 10, 10, 10, 10, 20, 20}, uint8(1), uint8(2))
	f.Add([]byte{255, 0, 128, 64, 32, 16, 8, 4, 2, 1, 9, 9}, uint8(3), uint8(4))
	f.Add([]byte{255, 254, 255, 253, 252, 252, 254, 254, 1, 2, 3, 4}, uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, dim uint8, minPts uint8) {
		d := 1 + int(dim%12)
		if len(raw) < d {
			return
		}
		n := len(raw) / d
		if n > 512 {
			n = 512
		}
		pts := make([]Point, n)
		for i := 0; i < n; i++ {
			p := make(Point, d)
			for j := 0; j < d; j++ {
				switch b := raw[i*d+j]; b {
				case 252:
					p[j] = math.Inf(-1)
				case 253:
					p[j] = math.Float64frombits(0x7ff8000000000bad)
				case 254:
					p[j] = math.NaN()
				case 255:
					p[j] = math.Inf(1)
				default:
					p[j] = float64(b) / 8
				}
			}
			pts[i] = p
		}
		checkPass(t, pts, int(minPts%8)+1, detectorEps)
	})
}

// BenchmarkKDistCluster compares one clustering pass (k-dist, the
// detector's eps, DBSCAN) against the same stages run after a sweep
// that stores no triangle ("indexed"), at the detection window's size
// and at twice matrixCap, where the pass itself stores none, in 3 and
// in 6 dimensions.
func BenchmarkKDistCluster(b *testing.B) {
	shapes := []struct{ n, d int }{{600, 2}, {600, 3}, {600, 5}, {600, 8}, {600, 16}, {600, 32}, {2048, 3}, {2048, 6}}
	for _, sh := range shapes {
		pts := genPoints(rand.New(rand.NewSource(int64(sh.n+sh.d))), sh.n, sh.d)
		name := fmt.Sprintf("n=%d/d=%d", sh.n, sh.d)
		b.Run("pass/"+name, func(b *testing.B) {
			var lk []float64
			var labels []int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lk, labels, _ = KDistCluster(lk, labels, pts, 3, detectorEps)
			}
		})
		b.Run("indexed/"+name, func(b *testing.B) {
			var lk []float64
			var labels []int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lk = KDistInto(lk, pts, 3)
				if eps, ok := detectorEps(lk); ok {
					labels = ClusterInto(labels, pts, eps, 3)
				}
			}
		})
	}
}

// TestWithinIsLargestSquareInsideEps pins the threshold DBSCAN compares
// squared distances with: for every eps, math.Sqrt(t) <= eps and the
// next float above t has its root beyond eps, so s <= t exactly when
// math.Sqrt(s) <= eps. Random eps values include ones where eps*eps
// rounds to the wrong side of that boundary in both directions.
func TestWithinIsLargestSquareInsideEps(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	epss := []float64{0, math.Copysign(0, -1), 1, 0.5, 1e-160, 5e-324, 1e154, 1.4e154, math.MaxFloat64}
	for i := 0; i < 20000; i++ {
		epss = append(epss, rng.Float64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	up, down := 0, 0
	for _, eps := range epss {
		w := within(eps)
		next := math.Nextafter(w, math.Inf(1))
		if math.Sqrt(w) > eps || math.Sqrt(next) <= eps {
			t.Fatalf("within(%v) = %v: sqrt %v, next float's sqrt %v", eps, w, math.Sqrt(w), math.Sqrt(next))
		}
		switch sq := eps * eps; {
		case w > sq:
			up++
		case w < sq:
			down++
		}
	}
	if up == 0 || down == 0 {
		t.Fatalf("eps*eps was below the threshold %d times and above it %d times; both must occur", up, down)
	}
	for _, eps := range []float64{-1, math.Inf(-1)} {
		if w := within(eps); !(w < 0) {
			t.Fatalf("within(%v) = %v, want below every squared distance", eps, w)
		}
	}
	if w := within(math.Inf(1)); !math.IsInf(w, 1) {
		t.Fatalf("within(+Inf) = %v", w)
	}
	if w := within(math.NaN()); !math.IsNaN(w) {
		t.Fatalf("within(NaN) = %v", w)
	}
}
