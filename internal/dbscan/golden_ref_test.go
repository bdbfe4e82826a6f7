package dbscan

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// This file carries the golden contract of the clustering pass: both
// paths must be byte-identical to the naive O(n²) implementations.
// refCluster below is a verbatim copy of the pre-grid Cluster and KDist
// is the naive k-dist list, both reference code. Cluster/ClusterInto
// and KDistIndexed/KDistInto run the pass's stages after a sweep that
// stores no triangle, so DBSCAN computes the distances it reads: the
// path a pass takes above matrixCap points. The tests drive them over
// randomized and
// adversarial point sets (non-finite coordinates, degenerate eps,
// duplicate points) and require exact equality; kdistcluster_test.go
// does the same for KDistCluster itself.

// Cluster runs DBSCAN at a given eps after a sweep that stores no
// triangle.
func Cluster(points []Point, eps float64, minPts int) []int {
	return ClusterInto(nil, points, eps, minPts)
}

// ClusterInto is Cluster writing labels into dst (grown as needed).
func ClusterInto(dst []int, points []Point, eps float64, minPts int) []int {
	sc := getScratch(points)
	defer putScratch(sc)
	sc.sweep(minPts, false)
	return sc.cluster(dst, eps, minPts)
}

// KDistIndexed is the k-dist list from a sweep that stores no triangle.
func KDistIndexed(points []Point, k int) []float64 {
	return KDistInto(nil, points, k)
}

// KDistInto is KDistIndexed writing into dst (grown as needed).
func KDistInto(dst []float64, points []Point, k int) []float64 {
	sc := getScratch(points)
	defer putScratch(sc)
	sc.sweep(k, false)
	return sc.kdist(dst, k)
}

// KDist returns every point's distance to its k-th nearest neighbour
// (excluding itself), sorted ascending: the naive O(n² log n)
// reference, verbatim from before the clustering pass.
func KDist(points []Point, k int) []float64 {
	if len(points) == 0 || k <= 0 {
		return nil
	}
	out := make([]float64, 0, len(points))
	dists := make([]float64, 0, len(points)-1)
	for i := range points {
		dists = dists[:0]
		for j := range points {
			if i != j {
				dists = append(dists, Distance(points[i], points[j]))
			}
		}
		if len(dists) == 0 {
			out = append(out, 0)
			continue
		}
		sort.Float64s(dists)
		idx := k - 1
		if idx >= len(dists) {
			idx = len(dists) - 1
		}
		out = append(out, dists[idx])
	}
	sort.Float64s(out)
	return out
}

// refCluster is the seed DBSCAN, verbatim.
func refCluster(points []Point, eps float64, minPts int) []int {
	const unvisited = -2
	labels := make([]int, len(points))
	for i := range labels {
		labels[i] = unvisited
	}
	neighbours := func(i int) []int {
		var out []int
		for j := range points {
			if Distance(points[i], points[j]) <= eps {
				out = append(out, j)
			}
		}
		return out
	}
	next := 0
	for i := range points {
		if labels[i] != unvisited {
			continue
		}
		seeds := neighbours(i)
		if len(seeds) < minPts {
			labels[i] = Noise
			continue
		}
		id := next
		next++
		labels[i] = id
		for q := 0; q < len(seeds); q++ {
			j := seeds[q]
			if labels[j] == Noise {
				labels[j] = id
			}
			if labels[j] != unvisited {
				continue
			}
			labels[j] = id
			jn := neighbours(j)
			if len(jn) >= minPts {
				seeds = append(seeds, jn...)
			}
		}
	}
	for i, l := range labels {
		if l == unvisited {
			labels[i] = Noise
		}
	}
	return labels
}

// genPoints builds a randomized point set: a handful of Gaussian blobs
// plus uniform background noise and a few exact duplicates, in d
// dimensions. Values are rounded to a coarse lattice now and then so
// many distances tie exactly.
func genPoints(rng *rand.Rand, n, d int) []Point {
	blobs := 1 + rng.Intn(4)
	centers := make([]Point, blobs)
	for b := range centers {
		c := make(Point, d)
		for j := range c {
			c[j] = rng.Float64() * 10
		}
		centers[b] = c
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		p := make(Point, d)
		switch {
		case rng.Float64() < 0.15: // background noise
			for j := range p {
				p[j] = rng.Float64() * 12
			}
		default:
			c := centers[rng.Intn(blobs)]
			for j := range p {
				p[j] = c[j] + 0.3*rng.NormFloat64()
			}
		}
		if rng.Float64() < 0.2 { // snap onto a lattice: exact ties
			for j := range p {
				p[j] = math.Round(p[j]*4) / 4
			}
		}
		pts = append(pts, p)
	}
	// Exact duplicates.
	for i := 0; i < n/20; i++ {
		pts[rng.Intn(n)] = append(Point(nil), pts[rng.Intn(n)]...)
	}
	return pts
}

func TestClusterGoldenAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{5, 31, 32, 64, 300, 900} {
		for _, d := range []int{1, 2, 3, 5, 6, 9} {
			pts := genPoints(rng, n, d)
			for _, minPts := range []int{2, 3, 5} {
				// eps values straddling cluster scales, including the
				// detector's own k-dist-derived choice.
				lk := KDist(pts, minPts)
				epss := []float64{0.05, 0.4, 1.5, lk[len(lk)-1] / 4, 1.5 * lk[len(lk)/2]}
				for _, eps := range epss {
					want := refCluster(pts, eps, minPts)
					got := Cluster(pts, eps, minPts)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d d=%d minPts=%d eps=%g: labels diverge", n, d, minPts, eps)
					}
					// ClusterInto with a reused (dirty) buffer.
					buf := make([]int, n)
					for i := range buf {
						buf[i] = 77
					}
					got2 := ClusterInto(buf, pts, eps, minPts)
					if !reflect.DeepEqual(got2, want) {
						t.Fatalf("n=%d d=%d minPts=%d eps=%g: ClusterInto diverges", n, d, minPts, eps)
					}
				}
			}
		}
	}
}

func TestKDistGoldenAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 31, 32, 64, 300, 900} {
		for _, d := range []int{1, 2, 3, 5, 6, 9} {
			pts := genPoints(rng, maxInt(n, 1), d)[:n]
			for _, k := range []int{1, 3, 5, n + 2} {
				want := KDist(pts, k)
				got := KDistIndexed(pts, k)
				if !float64sIdentical(got, want) {
					t.Fatalf("n=%d d=%d k=%d: k-dist lists diverge\n got=%v\nwant=%v", n, d, k, got, want)
				}
				// KDistInto with a reused buffer.
				buf := make([]float64, 0, n)
				got2 := KDistInto(buf, pts, k)
				if !float64sIdentical(got2, want) {
					t.Fatalf("n=%d d=%d k=%d: KDistInto diverges", n, d, k)
				}
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// float64sIdentical is bitwise slice equality: NaN==NaN, +0 != -0.
// DeepEqual can't be used for k-dist lists because NaN != NaN.
func float64sIdentical(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// adversarialCase is one degenerate input that every clustering path
// must handle exactly as the naive reference does.
type adversarialCase struct {
	name   string
	pts    []Point
	eps    float64
	minPts int
}

func adversarialCases() []adversarialCase {
	return []adversarialCase{
		{"empty", nil, 1, 3},
		{"single", []Point{{1, 2}}, 1, 3},
		{"identical", repeatPoint(Point{3.5, -1}, 100), 0.5, 3},
		{"nan-coord", withNaN(100), 0.5, 3},
		{"inf-coord", withInf(100), 0.5, 3},
		{"zero-eps", genPoints(rand.New(rand.NewSource(1)), 100, 2), 0, 3},
		{"negative-eps", genPoints(rand.New(rand.NewSource(2)), 100, 2), -1, 3},
		{"nan-eps", genPoints(rand.New(rand.NewSource(3)), 100, 2), math.NaN(), 3},
		{"inf-eps", genPoints(rand.New(rand.NewSource(4)), 100, 2), math.Inf(1), 3},
		{"huge-eps", genPoints(rand.New(rand.NewSource(5)), 100, 2), 1e18, 3},
		{"tiny-eps", genPoints(rand.New(rand.NewSource(6)), 100, 2), 1e-18, 3},
		{"huge-span", hugeSpan(100), 0.5, 3},
		{"minpts-1", genPoints(rand.New(rand.NewSource(8)), 100, 2), 0.4, 1},
		{"minpts-over-n", genPoints(rand.New(rand.NewSource(9)), 40, 2), 0.4, 50},
		{"zero-dim", make([]Point, 50), 0.5, 3},
	}
}

// TestGridGoldenAdversarial runs the adversarial table through the
// computed-rows path. It keeps the name it had when that path could
// also take a grid index.
func TestGridGoldenAdversarial(t *testing.T) {
	for _, tc := range adversarialCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := refCluster(tc.pts, tc.eps, tc.minPts)
			got := Cluster(tc.pts, tc.eps, tc.minPts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("labels diverge\n got=%v\nwant=%v", got, want)
			}
			if len(tc.pts) > 0 {
				wantK := KDist(tc.pts, tc.minPts)
				gotK := KDistIndexed(tc.pts, tc.minPts)
				if !float64sIdentical(gotK, wantK) {
					t.Fatalf("k-dist diverges\n got=%v\nwant=%v", gotK, wantK)
				}
			}
		})
	}
}

func repeatPoint(p Point, n int) []Point {
	out := make([]Point, n)
	for i := range out {
		out[i] = append(Point(nil), p...)
	}
	return out
}

func withNaN(n int) []Point {
	pts := genPoints(rand.New(rand.NewSource(11)), n, 3)
	pts[n/2][1] = math.NaN()
	return pts
}

func withInf(n int) []Point {
	pts := genPoints(rand.New(rand.NewSource(12)), n, 3)
	pts[n/3][0] = math.Inf(-1)
	return pts
}

// hugeSpan puts one point astronomically far away, so every distance
// to it is huge and max(Lk) dwarfs the rest of the list.
func hugeSpan(n int) []Point {
	pts := genPoints(rand.New(rand.NewSource(13)), n, 2)
	pts[0] = Point{1e30, 1e30}
	return pts
}

// TestClusterPermutationInvariance checks that the computed-rows path,
// like the naive one, partitions points identically (up to cluster
// renumbering) under input permutation.
func TestClusterPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n, d := 120+rng.Intn(200), 1+rng.Intn(3)
		pts := genPoints(rng, n, d)
		eps := 0.2 + rng.Float64()
		labels := Cluster(pts, eps, 3)
		perm := rng.Perm(n)
		shuffled := make([]Point, n)
		for i, p := range perm {
			shuffled[p] = pts[i]
		}
		labelsShuffled := Cluster(shuffled, eps, 3)
		back := make([]int, n)
		for i, p := range perm {
			back[i] = labelsShuffled[p]
		}
		if !samePartition(labels, back) {
			t.Fatalf("trial %d (n=%d d=%d eps=%g): partition changed under permutation", trial, n, d, eps)
		}
	}
}

// samePartition reports whether two labelings induce the same grouping:
// identical noise sets and a consistent bijection between cluster ids.
func samePartition(a, b []int) bool {
	fwd := map[int]int{}
	rev := map[int]int{}
	for i := range a {
		if (a[i] == Noise) != (b[i] == Noise) {
			return false
		}
		if a[i] == Noise {
			continue
		}
		if m, ok := fwd[a[i]]; ok && m != b[i] {
			return false
		}
		if m, ok := rev[b[i]]; ok && m != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}

// canonicalLabels renumbers cluster ids in first-occurrence order,
// leaving Noise untouched — the renumbering-invariant form the fuzzer
// compares.
func canonicalLabels(labels []int) []int {
	out := make([]int, len(labels))
	next := 0
	seen := map[int]int{}
	for i, l := range labels {
		if l == Noise {
			out[i] = Noise
			continue
		}
		id, ok := seen[l]
		if !ok {
			id = next
			seen[l] = id
			next++
		}
		out[i] = id
	}
	return out
}

func BenchmarkClusterNaive(b *testing.B) {
	benchCluster(b, refCluster)
}

func BenchmarkClusterIndexed(b *testing.B) {
	benchCluster(b, Cluster)
}

func benchCluster(b *testing.B, fn func([]Point, float64, int) []int) {
	pts := genPoints(rand.New(rand.NewSource(1)), 600, 3)
	lk := KDist(pts, 3)
	eps := lk[len(lk)-1] / 4
	b.Run(fmt.Sprintf("n=%d", len(pts)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn(pts, eps, 3)
		}
	})
}
