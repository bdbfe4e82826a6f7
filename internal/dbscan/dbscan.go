// Package dbscan implements the DBSCAN density-based clustering
// algorithm of Ester et al. [25], which DBSherlock's automatic anomaly
// detection (paper Section 7) uses to separate anomalous time points
// from the bulk of normal behaviour. Only what the paper needs is
// provided: Euclidean distance and one clustering pass that computes
// the k-dist list, chooses epsilon from it and clusters.
package dbscan

import (
	"math"
	"sort"
	"sync"
)

// Noise is the cluster id assigned to points in no cluster.
const Noise = -1

// Point is a point in d-dimensional space.
type Point []float64

// Distance returns the Euclidean distance between two points. Points of
// different dimensionality panic, as that is always a programming error.
func Distance(a, b Point) float64 {
	if len(a) != len(b) {
		panic("dbscan: dimension mismatch")
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// matrixCap is the largest point count for which a pass keeps the full
// n×n distance matrix: 1024² float64s are 8 MiB, a 600-row detection
// window 2.9 MB. Above it the pass computes each row when it reads it.
const matrixCap = 1024

// KDistCluster runs one clustering pass of the Section 7 detector over
// points. It writes the k-dist list with k = minPts into lk (grown as
// needed): every point's distance to its minPts-th nearest other point
// (the farthest when fewer exist, 0 when alone), sorted ascending. It
// then asks epsFrom for epsilon given that list and, when epsFrom
// accepts, runs DBSCAN at that radius, writing one label per point into
// labels (grown as needed): 0..n-1 for cluster members, Noise for noise.
// A point is a core point if at least minPts points (itself included)
// lie within eps. clustered reports whether the clustering ran; labels
// is returned untouched when it did not. With no points, or minPts <= 0,
// the k-dist list is nil.
//
// Up to matrixCap points, whatever the dimensionality, both stages read
// one pooled n×n matrix in which each pairwise distance is computed
// once. Above it each stage computes the rows it reads, one at a time.
// No spatial index is kept: on a trace with an anomaly the far rows
// inflate max(Lk) and with it eps, so most rows fall within eps of each
// other and an index cannot prune. The output is byte-identical to the
// naive O(n²) k-dist and DBSCAN on both paths, which golden and fuzz
// tests pin.
func KDistCluster(lk []float64, labels []int, points []Point, minPts int,
	epsFrom func(lk []float64) (eps float64, ok bool)) (_ []float64, _ []int, clustered bool) {
	sc := getScratch(points)
	defer putScratch(sc)
	if len(points) <= matrixCap {
		sc.fillMatrix()
	}
	lk = sc.kdist(lk, minPts)
	eps, ok := epsFrom(lk)
	if !ok {
		return lk, labels, false
	}
	return lk, sc.cluster(labels, eps, minPts), true
}

// scratch holds one pass's point set and reusable buffers. It is
// recycled through scratchPool, so a pass on a warm pool allocates
// nothing and a detector holds no matrix between ticks.
type scratch struct {
	points []Point
	mat    []float64 // n×n pairwise distances, row-major; nil when rows are computed on demand
	matBuf []float64 // backing store of mat, kept across passes

	row   []float64 // the last row computed on demand
	best  []float64 // k smallest distances of a row, ascending
	dists []float64 // a NaN row, sorted whole
	nbr   []int32
	seeds []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch(points []Point) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.points = points
	return sc
}

func putScratch(sc *scratch) {
	sc.points, sc.mat = nil, nil
	scratchPool.Put(sc)
}

// fillMatrix computes every pairwise distance once into sc.mat. Each
// pair is summed in coordinate order and square-rooted, as Distance
// does, four pairs per inner loop. (a−b)² and (b−a)² are the same
// number, so one sum serves both mat[i][j] and mat[j][i], and every
// entry is bitwise Distance(row point, column point). NaN entries are
// then recomputed with Distance in each direction, since which of two
// NaNs an addition keeps depends on operand order.
func (sc *scratch) fillMatrix() {
	points := sc.points
	n := len(points)
	if n == 0 {
		return
	}
	d := len(points[0])
	for _, q := range points {
		if len(q) != d {
			panic("dbscan: dimension mismatch")
		}
	}
	if cap(sc.matBuf) < n*n {
		sc.matBuf = make([]float64, n*n)
	}
	m := sc.matBuf[:n*n]
	nan := false
	for i, p := range points {
		m[i*n+i] = Distance(p, p)
		j := i + 1
		for ; j+4 <= n; j += 4 {
			q0, q1, q2, q3 := points[j][:d], points[j+1][:d], points[j+2][:d], points[j+3][:d]
			var s0, s1, s2, s3 float64
			for c, v := range p {
				d0 := v - q0[c]
				d1 := v - q1[c]
				d2 := v - q2[c]
				d3 := v - q3[c]
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
			}
			s0, s1, s2, s3 = math.Sqrt(s0), math.Sqrt(s1), math.Sqrt(s2), math.Sqrt(s3)
			m[i*n+j], m[j*n+i] = s0, s0
			m[i*n+j+1], m[(j+1)*n+i] = s1, s1
			m[i*n+j+2], m[(j+2)*n+i] = s2, s2
			m[i*n+j+3], m[(j+3)*n+i] = s3, s3
			nan = nan || s0 != s0 || s1 != s1 || s2 != s2 || s3 != s3
		}
		for ; j < n; j++ {
			s := Distance(p, points[j])
			m[i*n+j], m[j*n+i] = s, s
			nan = nan || s != s
		}
	}
	if nan {
		for i, p := range points {
			for j, q := range points {
				if v := m[i*n+j]; v != v {
					m[i*n+j] = Distance(p, q)
				}
			}
		}
	}
	sc.mat = m
}

// rowOf returns the distances from points[i] to every point in index
// order, entry i being points[i]'s distance to itself (0, or NaN for a
// non-finite coordinate). It reads the matrix when the pass has one and
// otherwise computes the row into scratch, valid until the next call.
func (sc *scratch) rowOf(i int) []float64 {
	n := len(sc.points)
	if sc.mat != nil {
		return sc.mat[i*n : (i+1)*n]
	}
	if cap(sc.row) < n {
		sc.row = make([]float64, n)
	}
	row := sc.row[:n]
	p := sc.points[i]
	for j, q := range sc.points {
		row[j] = Distance(p, q)
	}
	return row
}

// kth returns points[i]'s distance to its k-th nearest other point (the
// farthest when fewer than k others exist, 0 when alone). The k
// smallest entries of its row are kept in an insertion buffer. A row
// holding a NaN is sorted whole instead, because sort.Float64s orders
// NaN first and the naive k-dist reads its answer from that order.
func (sc *scratch) kth(i, k int) float64 {
	if len(sc.points) == 1 {
		return 0
	}
	row := sc.rowOf(i)
	best := sc.best[:0]
	for j, d := range row {
		if j == i {
			continue
		}
		if d != d {
			return sc.kthSorted(row, i, k)
		}
		if len(best) < k || d < best[k-1] {
			best = insertBest(best, d, k)
		}
	}
	sc.best = best
	return best[len(best)-1]
}

// insertBest inserts d into the ascending k-smallest buffer.
func insertBest(best []float64, d float64, k int) []float64 {
	if len(best) == k && d >= best[k-1] {
		return best
	}
	i := sort.SearchFloat64s(best, d)
	if len(best) < k {
		best = append(best, 0)
	}
	copy(best[i+1:], best[i:])
	best[i] = d
	return best
}

// kthSorted is kth by sorting the whole row, NaN entries included.
func (sc *scratch) kthSorted(row []float64, i, k int) float64 {
	dists := sc.dists[:0]
	for j, d := range row {
		if j != i {
			dists = append(dists, d)
		}
	}
	sc.dists = dists
	sort.Float64s(dists)
	return dists[min(k, len(dists))-1]
}

// kdist fills dst (grown as needed) with the sorted k-dist list, one
// row of the matrix or one computed row per point.
func (sc *scratch) kdist(dst []float64, k int) []float64 {
	points := sc.points
	if len(points) == 0 || k <= 0 {
		return nil
	}
	if cap(dst) < len(points) {
		dst = make([]float64, len(points))
	}
	dst = dst[:len(points)]
	for i := range points {
		dst[i] = sc.kth(i, k)
	}
	sort.Float64s(dst)
	return dst
}

// cluster runs DBSCAN into dst (grown as needed). Neighbour lists come
// from matrix rows or computed rows, both in ascending index order as
// the naive scan lists them, so cluster expansion and labels are
// identical.
func (sc *scratch) cluster(dst []int, eps float64, minPts int) []int {
	const unvisited = -2
	points := sc.points
	if cap(dst) < len(points) || dst == nil {
		dst = make([]int, len(points))
	}
	labels := dst[:len(points)]
	for i := range labels {
		labels[i] = unvisited
	}
	// neighbours appends the indices within eps of point i (including i)
	// in ascending order, as the naive scan lists them.
	neighbours := func(i int, out []int32) []int32 {
		for j, d := range sc.rowOf(i) {
			if d <= eps {
				out = append(out, int32(j))
			}
		}
		return out
	}
	next := 0
	for i := range points {
		if labels[i] != unvisited {
			continue
		}
		sc.nbr = neighbours(i, sc.nbr[:0])
		if len(sc.nbr) < minPts {
			labels[i] = Noise
			continue
		}
		id := next
		next++
		labels[i] = id
		seeds := append(sc.seeds[:0], sc.nbr...)
		// Expand the cluster over density-reachable points.
		for q := 0; q < len(seeds); q++ {
			j := seeds[q]
			if labels[j] == Noise {
				labels[j] = id // border point
			}
			if labels[j] != unvisited {
				continue
			}
			labels[j] = id
			sc.nbr = neighbours(int(j), sc.nbr[:0])
			if len(sc.nbr) >= minPts {
				seeds = append(seeds, sc.nbr...)
			}
		}
		sc.seeds = seeds
	}
	// Normalize any remaining unvisited (unreachable) to noise; cannot
	// happen with the loop above but keeps the invariant explicit.
	for i, l := range labels {
		if l == unvisited {
			labels[i] = Noise
		}
	}
	return labels
}
