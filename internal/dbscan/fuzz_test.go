package dbscan

import (
	"math"
	"reflect"
	"testing"
)

// FuzzClusterEquivalence feeds arbitrary point sets, eps, and minPts to
// both the computed-rows and naive DBSCAN paths and requires identical
// labels up to cluster-id renumbering (in practice the ids match
// exactly too, but the canonical form keeps the invariant honest) plus
// identical k-dist lists. Wired into make fuzz-smoke.
func FuzzClusterEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), 0.5, uint8(3))
	f.Add([]byte{0, 0, 0, 0, 10, 10, 10, 10, 20, 20}, uint8(1), 1.0, uint8(2))
	f.Add([]byte{255, 0, 128, 64, 32, 16, 8, 4, 2, 1, 9, 9}, uint8(3), 2.0, uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, dim uint8, eps float64, minPts uint8) {
		d := 1 + int(dim%9)
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
				b := raw[i*d+j]
				switch b {
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
		mp := int(minPts%8) + 1

		want := refCluster(pts, eps, mp)
		got := Cluster(pts, eps, mp)
		if !reflect.DeepEqual(canonicalLabels(got), canonicalLabels(want)) {
			t.Fatalf("labels diverge (d=%d n=%d eps=%g minPts=%d)\n got=%v\nwant=%v", d, n, eps, mp, got, want)
		}

		wantK := KDist(pts, mp)
		gotK := KDistIndexed(pts, mp)
		if !float64sIdentical(gotK, wantK) {
			t.Fatalf("k-dist diverges (d=%d n=%d minPts=%d)\n got=%v\nwant=%v", d, n, mp, gotK, wantK)
		}
	})
}
