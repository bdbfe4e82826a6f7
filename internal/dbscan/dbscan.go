// Package dbscan implements the DBSCAN density-based clustering
// algorithm of Ester et al. [25], which DBSherlock's automatic anomaly
// detection (paper Section 7) uses to separate anomalous time points
// from the bulk of normal behaviour. Only what the paper needs is
// provided: Euclidean distance and one clustering pass that computes
// the k-dist list, chooses epsilon from it and clusters. The pass works
// on squared distances, each pair's computed once, and takes a square
// root only for the k-dist list.
package dbscan

import (
	"math"
	"slices"
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
	return math.Sqrt(sqDist(a, b))
}

// sqDist is the sum Distance takes the square root of, summed in
// coordinate order.
func sqDist(a, b Point) float64 {
	if len(a) != len(b) {
		panic("dbscan: dimension mismatch")
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// matrixCap is the largest point count for which a pass stores the
// squared distances its sweep computes: the upper triangle of 1024
// points is 4 MiB of float64s, a 600-row detection window's 1.4 MB.
// Above it DBSCAN computes each distance it reads.
const matrixCap = 1024

// keptMax bounds the nearest squared distances the sweep keeps per
// point. A larger minPts (only tests use one) reads whole rows instead.
const keptMax = 16

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
// One triangular sweep computes each pair's squared distance once and
// keeps every point's minPts smallest, so a k-dist entry is one square
// root and a point's core status is one comparison. Up to matrixCap
// points the sweep also stores the triangle; above it DBSCAN computes
// the distances it reads. DBSCAN compares squared distances with the
// largest square whose root is within eps, and grows each cluster by
// scanning only the points that are in no cluster yet, so each point
// enters the expansion queue once. No spatial index is kept: on a trace
// with an anomaly the far rows inflate max(Lk) and with it eps, so most
// rows fall within eps of each other and an index cannot prune. The
// output is byte-identical to the naive O(n²) k-dist and DBSCAN on both
// sides of matrixCap, which golden and fuzz tests pin.
func KDistCluster(lk []float64, labels []int, points []Point, minPts int,
	epsFrom func(lk []float64) (eps float64, ok bool)) (_ []float64, _ []int, clustered bool) {
	sc := getScratch(points)
	defer putScratch(sc)
	sc.sweep(minPts, len(points) <= matrixCap)
	lk = sc.kdist(lk, minPts)
	eps, ok := epsFrom(lk)
	if !ok {
		return lk, labels, false
	}
	return lk, sc.cluster(labels, eps, minPts), true
}

// scratch holds one pass's point set and reusable buffers. It is
// recycled through scratchPool, so a pass on a warm pool allocates
// nothing and a detector holds no distances between ticks.
type scratch struct {
	points []Point
	tri    []float64 // squared distances of pairs i < j, row i after row i-1; nil when computed on demand
	triBuf []float64 // backing store of tri, kept across passes
	slots  int       // squared distances kept per point
	kept   []float64 // n×slots: each point's smallest squared distances to other points, ascending
	nanRow []bool    // whether a point's distance to some other point is NaN

	row   []float64 // one row of distances, computed or gathered
	core  []bool
	rest  []int32 // points in no cluster yet (unvisited or noise), ascending
	queue []int32 // core points of the growing cluster, each enqueued once
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch(points []Point) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.points = points
	return sc
}

func putScratch(sc *scratch) {
	sc.points, sc.tri = nil, nil
	scratchPool.Put(sc)
}

// rowStart is the index in tri of the pair (i, i+1), the first of row
// i: rows 0..i-1 hold n-1, n-2, ..., n-i pairs.
func rowStart(i, n int) int { return i * (2*n - i - 1) / 2 }

// sweep computes every pair's squared distance once, summed in
// coordinate order as Distance sums it, four pairs per inner loop.
// (a−b)² and (b−a)² are the same number, so one sum, of
// (points[j]−points[i])² for i < j, serves both points of a pair. It
// keeps each point's smallest squared distances to the others,
// min(k, n−1) of them when that is at most keptMax, and with store set
// writes the triangle to sc.tri. A NaN sum can only come from
// a non-finite coordinate; the rows holding one are marked and answered
// from whole rows, since which NaN payload a sum carries depends on
// operand order and the naive k-dist reads its answer from a sorted
// row, NaN first.
func (sc *scratch) sweep(k int, store bool) {
	points := sc.points
	n := len(points)
	sc.tri = nil
	if n == 0 {
		return
	}
	d := len(points[0])
	for _, q := range points {
		if len(q) != d {
			panic("dbscan: dimension mismatch")
		}
	}
	slots := min(k, n-1, keptMax)
	if slots < min(k, n-1) || slots < 1 {
		slots = 1 // rows are read whole; keeping one anyway spares the loop a branch
	}
	sc.slots = slots
	sc.kept = grow(sc.kept, n*slots)
	for i := range sc.kept {
		sc.kept[i] = math.Inf(1)
	}
	sc.nanRow = grow(sc.nanRow, n)
	clear(sc.nanRow)
	var tri []float64
	if store {
		sc.triBuf = grow(sc.triBuf, n*(n-1)/2)
		tri = sc.triBuf
		sc.tri = tri
	}
	kept, last := sc.kept, slots-1
	nan := false
	off := 0
	for i, p := range points {
		p = p[:d]
		own := kept[i*slots : i*slots+slots]
		j := i + 1
		for ; j+4 <= n; j += 4 {
			q0, q1, q2, q3 := points[j][:d], points[j+1][:d], points[j+2][:d], points[j+3][:d]
			var s0, s1, s2, s3 float64
			for c, v := range p {
				d0 := q0[c] - v
				d1 := q1[c] - v
				d2 := q2[c] - v
				d3 := q3[c] - v
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
			}
			if tri != nil {
				t := tri[off : off+4]
				t[0], t[1], t[2], t[3] = s0, s1, s2, s3
				off += 4
			}
			nan = nan || s0 != s0 || s1 != s1 || s2 != s2 || s3 != s3
			if s0 < own[last] {
				insertKept(own, s0)
			}
			if s1 < own[last] {
				insertKept(own, s1)
			}
			if s2 < own[last] {
				insertKept(own, s2)
			}
			if s3 < own[last] {
				insertKept(own, s3)
			}
			b := kept[j*slots : j*slots+4*slots]
			if s0 < b[last] {
				insertKept(b[:slots], s0)
			}
			if s1 < b[slots+last] {
				insertKept(b[slots:2*slots], s1)
			}
			if s2 < b[2*slots+last] {
				insertKept(b[2*slots:3*slots], s2)
			}
			if s3 < b[3*slots+last] {
				insertKept(b[3*slots:], s3)
			}
		}
		for ; j < n; j++ {
			s := sqDist(points[j], p)
			if tri != nil {
				tri[off] = s
				off++
			}
			nan = nan || s != s
			if s < own[last] {
				insertKept(own, s)
			}
			if b := kept[j*slots : j*slots+slots]; s < b[last] {
				insertKept(b, s)
			}
		}
	}
	if nan {
		sc.markNaNRows()
	}
}

// insertKept inserts s into an ascending buffer whose last entry it is
// below, dropping that entry.
func insertKept(b []float64, s float64) {
	k := len(b) - 1
	for k > 0 && s < b[k-1] {
		b[k] = b[k-1]
		k--
	}
	b[k] = s
}

// markNaNRows marks both points of every pair whose squared distance is
// NaN. Such a pair has a point with a NaN or infinite coordinate (whose
// distance to itself is NaN), so only those points' rows are read.
func (sc *scratch) markNaNRows() {
	for i, p := range sc.points {
		if s := sqDist(p, p); s == s {
			continue
		}
		for j := range sc.points {
			if j != i {
				if s := sc.dist2(i, j); s != s {
					sc.nanRow[i], sc.nanRow[j] = true, true
				}
			}
		}
	}
}

// dist2 returns the squared distance between points i and j (i != j),
// from the triangle when the sweep stored it. NaN payloads may differ
// from Distance(points[i], points[j]); NaN-ness and every other value
// do not.
func (sc *scratch) dist2(i, j int) float64 {
	if sc.tri == nil {
		return sqDist(sc.points[i], sc.points[j])
	}
	if i > j {
		i, j = j, i
	}
	return sc.tri[rowStart(i, len(sc.points))+j-i-1]
}

// sqRow returns the squared distances from point i to every other point
// in index order, valid until the next call.
func (sc *scratch) sqRow(i int) []float64 {
	row := sc.row[:0]
	for j := range sc.points {
		if j != i {
			row = append(row, sc.dist2(i, j))
		}
	}
	sc.row = row
	return row
}

// smallest returns the m-th smallest squared distance from point i to
// the other points, 1 <= m <= n−1, for a row without NaN: from the kept
// buffer when the sweep kept that many, else from the whole row.
func (sc *scratch) smallest(i, m int) float64 {
	if m <= sc.slots {
		return sc.kept[i*sc.slots+m-1]
	}
	row := sc.sqRow(i)
	if m == len(row) {
		return slices.Max(row)
	}
	slices.Sort(row)
	return row[m-1]
}

// kdist fills dst (grown as needed) with the sorted k-dist list: one
// square root of a kept squared distance per point. A row holding a NaN
// is computed with Distance and sorted whole, because sort.Float64s
// orders NaN first and the naive k-dist reads its answer, payload
// included, from that order.
func (sc *scratch) kdist(dst []float64, k int) []float64 {
	points := sc.points
	n := len(points)
	if n == 0 || k <= 0 {
		return nil
	}
	dst = grow(dst, n)
	m := min(k, n-1)
	for i := range points {
		switch {
		case n == 1:
			dst[i] = 0
		case sc.nanRow[i]:
			dst[i] = sc.kthSorted(i, m)
		default:
			dst[i] = math.Sqrt(sc.smallest(i, m))
		}
	}
	sort.Float64s(dst)
	return dst
}

// kthSorted is the m-th entry of point i's sorted row of distances to
// the other points, as the naive k-dist computes it.
func (sc *scratch) kthSorted(i, m int) float64 {
	dists := sc.row[:0]
	p := sc.points[i]
	for j, q := range sc.points {
		if j != i {
			dists = append(dists, Distance(p, q))
		}
	}
	sc.row = dists
	sort.Float64s(dists)
	return dists[m-1]
}

// within returns the largest float64 s with math.Sqrt(s) <= eps.
// Correctly rounded sqrt is monotone, so a squared distance s is within
// eps exactly when s <= within(eps). A NaN eps gives NaN, which no s is
// at or below, as no distance is within a NaN eps.
func within(eps float64) float64 {
	switch {
	case eps != eps || math.IsInf(eps, 1):
		return eps
	case eps < 0:
		return math.Inf(-1)
	}
	t := eps * eps
	for math.Sqrt(t) > eps {
		t = math.Nextafter(t, math.Inf(-1))
	}
	for u := math.Nextafter(t, math.Inf(1)); math.Sqrt(u) <= eps; u = math.Nextafter(u, math.Inf(1)) {
		t = u
	}
	return t
}

// isCore reports whether at least minPts points, point i included, lie
// within eps of point i, given t = within(eps). A point with a NaN or
// infinite coordinate is at distance NaN from itself and does not count
// itself.
func (sc *scratch) isCore(i, minPts int, t float64) bool {
	p := sc.points[i]
	m := minPts // other points needed
	if sqDist(p, p) <= t {
		m--
	}
	switch {
	case m <= 0:
		return true
	case m > len(sc.points)-1:
		return false
	case !sc.nanRow[i]:
		return sc.smallest(i, m) <= t
	}
	for _, s := range sc.sqRow(i) {
		if s <= t {
			if m--; m == 0 {
				return true
			}
		}
	}
	return false
}

// cluster runs DBSCAN into dst (grown as needed). Core status comes
// from the kept distances. Each cluster starts at the lowest-index
// unvisited core point, as in the naive scan, and grows breadth first:
// expanding a core point scans the points in no cluster yet, in
// ascending order, labels those within eps, and enqueues the ones that
// were unvisited and are core. A point already in a cluster keeps its
// label, as the naive scan skips it, and a core point of an earlier
// cluster is never within eps of this cluster's core points (that
// cluster would have reached them), so the set each cluster labels, and
// with it every label, is the naive scan's whatever the visiting order.
func (sc *scratch) cluster(dst []int, eps float64, minPts int) []int {
	const unvisited = -2
	points := sc.points
	n := len(points)
	if cap(dst) < n || dst == nil {
		dst = make([]int, n)
	}
	labels := dst[:n]
	t := within(eps)
	sc.core = grow(sc.core, n)
	core := sc.core
	rest := sc.rest[:0]
	for i := range labels {
		labels[i] = unvisited
		core[i] = sc.isCore(i, minPts, t)
		rest = append(rest, int32(i))
	}
	if cap(sc.queue) < n {
		sc.queue = make([]int32, 0, n)
	}
	next := 0
	for i := range points {
		if labels[i] != unvisited {
			continue
		}
		if !core[i] {
			labels[i] = Noise
			continue
		}
		id := next
		next++
		labels[i] = id
		queue := append(sc.queue[:0], int32(i))
		for q := 0; q < len(queue); q++ {
			j := int(queue[q])
			dist := sc.restDist2(j, rest)
			w := 0
			for x, u := range rest {
				l := labels[u]
				if l >= 0 {
					continue // in a cluster: leaves rest
				}
				if dist[x] <= t {
					if l == unvisited && core[u] {
						queue = append(queue, u)
					}
					labels[u] = id
					continue
				}
				rest[w] = u
				w++
			}
			rest = rest[:w]
		}
		sc.queue = queue
	}
	sc.rest = rest
	return labels
}

// restDist2 returns the squared distance from point j to each point of
// rest (ascending, and 0 for j itself), valid until the next call. From
// a stored triangle, the points below j are read down j's column and
// the ones above it along j's row.
func (sc *scratch) restDist2(j int, rest []int32) []float64 {
	sc.row = grow(sc.row, len(rest))
	dist := sc.row
	if sc.tri == nil {
		p := sc.points[j]
		for x, u := range rest {
			dist[x] = sqDist(sc.points[u], p)
		}
		return dist
	}
	tri, n := sc.tri, len(sc.points)
	below, self := slices.BinarySearch(rest, int32(j))
	for x, u := range rest[:below] {
		dist[x] = tri[rowStart(int(u), n)+j-int(u)-1]
	}
	above := below
	if self {
		dist[below] = 0
		above++
	}
	base := rowStart(j, n) - j - 1
	for x, u := range rest[above:] {
		dist[above+x] = tri[base+int(u)]
	}
	return dist
}

// grow returns s resized to n, reallocating only when its capacity is
// short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
