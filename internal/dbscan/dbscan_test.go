package dbscan

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDistance(t *testing.T) {
	if d := Distance(Point{0, 0}, Point{3, 4}); d != 5 {
		t.Errorf("Distance = %v, want 5", d)
	}
	if d := Distance(Point{1}, Point{1}); d != 0 {
		t.Errorf("Distance identical = %v", d)
	}
}

func TestDistancePanicsOnDimensionMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	Distance(Point{1}, Point{1, 2})
}

func twoBlobs(n1, n2 int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	var pts []Point
	for i := 0; i < n1; i++ {
		pts = append(pts, Point{0.1 * rng.NormFloat64(), 0.1 * rng.NormFloat64()})
	}
	for i := 0; i < n2; i++ {
		pts = append(pts, Point{5 + 0.1*rng.NormFloat64(), 5 + 0.1*rng.NormFloat64()})
	}
	return pts
}

func TestClusterSeparatesBlobs(t *testing.T) {
	pts := twoBlobs(50, 20, 1)
	labels := Cluster(pts, 0.5, 3)
	first, second := labels[0], labels[50]
	if first == Noise || second == Noise || first == second {
		t.Fatalf("blob labels = %d, %d", first, second)
	}
	for i, l := range labels {
		want := first
		if i >= 50 {
			want = second
		}
		if l != want {
			t.Errorf("point %d label = %d, want %d", i, l, want)
		}
	}
	sizes := Sizes(labels)
	if sizes[first] != 50 || sizes[second] != 20 {
		t.Errorf("sizes = %v", sizes)
	}
}

func TestClusterMarksIsolatedPointsNoise(t *testing.T) {
	pts := twoBlobs(30, 0, 2)
	pts = append(pts, Point{100, 100})
	labels := Cluster(pts, 0.5, 3)
	if labels[len(labels)-1] != Noise {
		t.Errorf("outlier label = %d, want Noise", labels[len(labels)-1])
	}
}

func TestClusterMinPtsTooHigh(t *testing.T) {
	pts := []Point{{0}, {0.1}, {10}}
	labels := Cluster(pts, 0.5, 5)
	for i, l := range labels {
		if l != Noise {
			t.Errorf("point %d = %d, want all noise when minPts unreachable", i, l)
		}
	}
}

func TestClusterEmpty(t *testing.T) {
	if labels := Cluster(nil, 1, 3); len(labels) != 0 {
		t.Errorf("labels = %v", labels)
	}
}

func TestKDistSortedAndSized(t *testing.T) {
	pts := twoBlobs(20, 10, 3)
	ld := KDist(pts, 3)
	if len(ld) != len(pts) {
		t.Fatalf("len = %d, want %d", len(ld), len(pts))
	}
	for i := 1; i < len(ld); i++ {
		if ld[i] < ld[i-1] {
			t.Fatal("KDist not sorted")
		}
	}
	if KDist(nil, 3) != nil {
		t.Error("KDist(nil) should be nil")
	}
	if KDist(pts, 0) != nil {
		t.Error("KDist(k=0) should be nil")
	}
}

func TestKDistSinglePoint(t *testing.T) {
	ld := KDist([]Point{{1, 2}}, 3)
	if len(ld) != 1 || ld[0] != 0 {
		t.Errorf("KDist single = %v", ld)
	}
}

// Property: every point within eps of a core point's cluster is not
// noise, and labels partition points into noise or valid cluster ids.
func TestClusterLabelsValidProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%40 + 5
		rng := rand.New(rand.NewSource(seed))
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64() * 3, rng.Float64() * 3}
		}
		labels := Cluster(pts, 0.5, 3)
		maxID := -1
		for _, l := range labels {
			if l < Noise {
				return false
			}
			if l > maxID {
				maxID = l
			}
		}
		// Cluster ids must be dense 0..maxID.
		if maxID >= 0 {
			seen := make([]bool, maxID+1)
			for _, l := range labels {
				if l >= 0 {
					seen[l] = true
				}
			}
			for _, s := range seen {
				if !s {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: clustering is insensitive to point order (up to relabeling).
func TestClusterOrderInvarianceProperty(t *testing.T) {
	pts := twoBlobs(25, 15, 9)
	labels := Cluster(pts, 0.5, 3)
	// Reverse the points.
	rev := make([]Point, len(pts))
	for i := range pts {
		rev[len(pts)-1-i] = pts[i]
	}
	labelsRev := Cluster(rev, 0.5, 3)
	// Same partition: points i and j share a cluster in one ordering
	// iff they share one in the other.
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			a := labels[i] == labels[j] && labels[i] != Noise
			b := labelsRev[len(pts)-1-i] == labelsRev[len(pts)-1-j] && labelsRev[len(pts)-1-i] != Noise
			if a != b {
				t.Fatalf("pair (%d,%d) clustered differently across orderings", i, j)
			}
		}
	}
}

// Sizes returns the number of points in each cluster id (noise
// excluded).
func Sizes(labels []int) map[int]int {
	out := make(map[int]int)
	for _, l := range labels {
		if l != Noise {
			out[l]++
		}
	}
	return out
}
