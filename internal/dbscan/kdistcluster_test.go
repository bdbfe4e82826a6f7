package dbscan

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
// up to matrixCap points the pass reads the distance matrix, one more
// and it computes rows.
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

// TestFillMatrixMatchesDistance pins the matrix entry by entry, NaN
// payloads included: two NaNs with different payloads in one pair make
// the row and column entries differ, and each must still be what
// Distance returns for that ordered pair.
func TestFillMatrixMatchesDistance(t *testing.T) {
	otherNaN := math.Float64frombits(0x7ff8000000000bad)
	pts := genPoints(rand.New(rand.NewSource(31)), 37, 5)
	pts[3][1] = math.NaN()
	pts[4][1] = otherNaN
	pts[5][0], pts[6][0] = math.Inf(1), math.Inf(1)
	pts[6][2] = math.NaN()
	pts[7][4] = math.Inf(-1)
	pts[8][0], pts[8][3] = math.Inf(1), otherNaN
	sc := getScratch(pts)
	defer putScratch(sc)
	sc.fillMatrix()
	for i := range pts {
		row := sc.rowOf(i)
		for j := range pts {
			if got, want := row[j], Distance(pts[i], pts[j]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("mat[%d][%d] = %x, Distance = %x", i, j, math.Float64bits(got), math.Float64bits(want))
			}
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
// detector's eps, DBSCAN) through the distance matrix against the same
// pass through computed rows, at the detection window's size and at
// twice matrixCap, where the pass itself computes rows, in 3 and in 6
// dimensions.
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
