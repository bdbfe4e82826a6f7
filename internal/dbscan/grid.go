package dbscan

import (
	"math"
	"sort"
	"sync"
)

// This file implements a uniform-grid spatial index over the point set.
// Points are bucketed into axis-aligned cells of side `cell`; a radius
// query with radius == cell then only has to inspect the 3^d cells
// adjacent to the query point's cell, and a k-nearest-neighbour query
// inspects cells in expanding Chebyshev rings around it. That turns the
// O(n²) pairwise scans of a clustering pass into ~O(n) expected work on
// low-dimensional point sets too large for the pass's distance matrix
// (more than matrixCap points).
//
// The grid degenerates when the dimensionality is high (3^d neighbour
// cells stop being cheaper than scanning all n points), when any
// coordinate is non-finite, or when the coordinate span divided by the
// cell size overflows the cell-index range. All those cases fall back
// to the row-by-row scan, so the pass is total and — pinned by golden
// and fuzz tests — label-identical to the naive implementation in
// every regime.

// maxGridDim is the hard dimensionality ceiling of the grid: cell keys
// are fixed-size arrays so they can be Go map keys without hashing
// ambiguity, and above ~8 dimensions the 3^d adjacent-cell enumeration
// has long lost to the naive scan anyway.
const maxGridDim = 8

// gridMinPoints is the point count below which building the index is
// not worth the setup cost; the naive scan is used instead.
const gridMinPoints = 32

// maxCellCoord bounds per-dimension cell indices so that coordinate
// arithmetic stays far from int32 overflow.
const maxCellCoord = 1 << 30

// gridKey is a point's cell coordinate vector. Dimensions beyond the
// point dimensionality stay zero, which keeps keys comparable across
// the map regardless of d.
type gridKey [maxGridDim]int32

// gridSpan is one cell's slice of the grid's index arena.
type gridSpan struct{ start, n int32 }

// grid is the uniform-grid index. It is built per call and recycled
// through gridPool, so steady-state use allocates nothing: the two maps
// are cleared (keeping their buckets) and the slices are re-sliced.
type grid struct {
	dims int
	cell float64
	min  [maxGridDim]float64

	keys []gridKey // cell key per point
	span map[gridKey]gridSpan
	fill map[gridKey]int32 // next write offset per cell during build
	idx  []int32           // arena: point indices grouped by cell, ascending within a cell

	cellMin, cellMax gridKey // occupied-cell bounding box, per dimension

	offsets []gridKey // the 3^dims neighbour offsets, built on demand
}

var gridPool = sync.Pool{New: func() any {
	return &grid{
		span: make(map[gridKey]gridSpan),
		fill: make(map[gridKey]int32),
	}
}}

func getGrid() *grid { return gridPool.Get().(*grid) }

func putGrid(g *grid) {
	clear(g.span)
	clear(g.fill)
	gridPool.Put(g)
}

// gridUsable reports whether the grid beats the naive scan for n points
// in d dimensions: the 3^d adjacent-cell enumeration must stay well
// under the n-point scan it replaces.
func gridUsable(n, d int) bool {
	if d < 1 || d > maxGridDim || n < gridMinPoints {
		return false
	}
	cells := 1
	for i := 0; i < d; i++ {
		cells *= 3
		if 2*cells > n {
			return false
		}
	}
	return true
}

// build indexes the points with the given cell size. ok is false when
// the grid would degenerate: non-positive or non-finite cell size, any
// non-finite coordinate, or a span/cell ratio overflowing the cell
// index range. The caller must fall back to the naive scan then.
func (g *grid) build(points []Point, cell float64) (ok bool) {
	d := len(points[0])
	if !(cell > 0) || math.IsInf(cell, 0) {
		return false
	}
	var min, max [maxGridDim]float64
	for j := 0; j < d; j++ {
		min[j] = math.Inf(1)
		max[j] = math.Inf(-1)
	}
	for _, p := range points {
		if len(p) != d {
			// Mixed dimensionality is a caller bug; let the naive path
			// surface it the way it always has (Distance panics).
			return false
		}
		for j, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
			if v < min[j] {
				min[j] = v
			}
			if v > max[j] {
				max[j] = v
			}
		}
	}
	for j := 0; j < d; j++ {
		if (max[j]-min[j])/cell >= maxCellCoord {
			return false
		}
	}
	g.dims = d
	g.cell = cell
	g.min = min

	if cap(g.keys) < len(points) {
		g.keys = make([]gridKey, len(points))
		g.idx = make([]int32, len(points))
	}
	g.keys = g.keys[:len(points)]
	g.idx = g.idx[:len(points)]

	// Pass 1: cell key and occupancy count per point.
	for i, p := range points {
		var k gridKey
		for j, v := range p {
			k[j] = int32(math.Floor((v - min[j]) / cell))
		}
		if i == 0 {
			g.cellMin, g.cellMax = k, k
		} else {
			for j := 0; j < d; j++ {
				if k[j] < g.cellMin[j] {
					g.cellMin[j] = k[j]
				}
				if k[j] > g.cellMax[j] {
					g.cellMax[j] = k[j]
				}
			}
		}
		g.keys[i] = k
		s := g.span[k]
		s.n++
		g.span[k] = s
	}
	// Pass 2: assign each cell a contiguous range of the arena, then
	// scatter the point indices. Scanning points in index order keeps
	// every cell's slice ascending, which the neighbour queries rely on.
	var cursor int32
	for i := range g.keys {
		k := g.keys[i]
		if _, seen := g.fill[k]; !seen {
			g.fill[k] = cursor
			s := g.span[k]
			s.start = cursor
			g.span[k] = s
			cursor += s.n
		}
	}
	for i := range g.keys {
		k := g.keys[i]
		at := g.fill[k]
		g.idx[at] = int32(i)
		g.fill[k] = at + 1
	}
	return true
}

// buildOffsets enumerates the 3^dims neighbour offsets once per build.
func (g *grid) buildOffsets() {
	g.offsets = g.offsets[:0]
	var off gridKey
	for j := 0; j < g.dims; j++ {
		off[j] = -1
	}
	for {
		g.offsets = append(g.offsets, off)
		j := 0
		for ; j < g.dims; j++ {
			if off[j] < 1 {
				off[j]++
				break
			}
			off[j] = -1
		}
		if j == g.dims {
			return
		}
	}
}

// neighbours appends to dst the indices of every point within eps of
// points[i] (including i itself), in ascending index order — exactly
// the list the naive O(n) scan produces, which is what keeps grid
// clustering label-identical to the naive one.
func (g *grid) neighbours(points []Point, i int, eps float64, dst []int32) []int32 {
	center := g.keys[i]
	p := points[i]
	for _, off := range g.offsets {
		k := center
		for j := 0; j < g.dims; j++ {
			k[j] += off[j]
		}
		s, ok := g.span[k]
		if !ok {
			continue
		}
		for _, j := range g.idx[s.start : s.start+s.n] {
			if Distance(p, points[j]) <= eps {
				dst = append(dst, j)
			}
		}
	}
	sortInt32s(dst)
	return dst
}

// kdist returns points[i]'s distance to its k-th nearest neighbour
// (excluding itself; the overall farthest when fewer than k others
// exist; 0 when alone), searching cells in expanding Chebyshev rings.
// After finishing ring r every unvisited point is farther than r·cell,
// so the search stops as soon as the k-th best distance is within that
// bound. A per-point work budget caps pathological geometries (e.g. a
// far outlier forcing many empty rings): beyond it the point falls
// back to the row scan, keeping the worst case at naive cost.
func (g *grid) kdist(sc *scratch, i, k int) float64 {
	points := sc.points
	p := points[i]
	best := sc.best[:0]
	budget := 4*len(points) + 64
	work := 0
	var off gridKey
	for r := int32(0); ; r++ {
		// Enumerate the cube [-r, r]^dims, keeping the shell ‖off‖∞ == r.
		for j := 0; j < g.dims; j++ {
			off[j] = -r
		}
		for {
			work++
			if work > budget {
				return sc.kth(i, k)
			}
			shell := r == 0
			for j := 0; j < g.dims; j++ {
				if off[j] == r || off[j] == -r {
					shell = true
					break
				}
			}
			if shell {
				key := g.keys[i]
				for j := 0; j < g.dims; j++ {
					key[j] += off[j]
				}
				if s, ok := g.span[key]; ok {
					work += int(s.n)
					if work > budget {
						return sc.kth(i, k)
					}
					for _, j := range g.idx[s.start : s.start+s.n] {
						if int(j) == i {
							continue
						}
						best = insertBest(best, Distance(p, points[j]), k)
					}
				}
			}
			j := 0
			for ; j < g.dims; j++ {
				if off[j] < r {
					off[j]++
					break
				}
				off[j] = -r
			}
			if j == g.dims {
				break
			}
		}
		if len(best) >= k && best[k-1] <= float64(r)*g.cell {
			break
		}
		if g.ringExhausted(i, r) {
			break
		}
	}
	sc.best = best
	if len(best) == 0 {
		return 0
	}
	ki := k - 1
	if ki >= len(best) {
		ki = len(best) - 1
	}
	return best[ki]
}

// ringExhausted reports whether rings 0..r around point i already cover
// the occupied-cell bounding box, so growing r further cannot find new
// points. O(d) thanks to the bounding box recorded at build time.
func (g *grid) ringExhausted(i int, r int32) bool {
	center := g.keys[i]
	for j := 0; j < g.dims; j++ {
		if center[j]-g.cellMin[j] > r || g.cellMax[j]-center[j] > r {
			return false
		}
	}
	return true
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

// kdCell picks the KDist grid's cell size so a cell holds ~k points in
// expectation: (volume · k / n)^(1/d) over the dimensions with positive
// extent. ok is false when the geometry gives no usable cell (all
// points identical is handled by the caller; non-finite spreads or a
// degenerate product land here).
func kdCell(points []Point, k int) (cell float64, ok bool) {
	d := len(points[0])
	logVol := 0.0
	eff := 0
	for j := 0; j < d; j++ {
		min, max := math.Inf(1), math.Inf(-1)
		for _, p := range points {
			v := p[j]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, false
			}
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if ext := max - min; ext > 0 {
			logVol += math.Log(ext)
			eff++
		}
	}
	if eff == 0 {
		return 0, false
	}
	cell = math.Exp((logVol + math.Log(float64(k)/float64(len(points)))) / float64(eff))
	if !(cell > 0) || math.IsInf(cell, 0) {
		return 0, false
	}
	return cell, true
}

// allIdentical reports whether every point equals the first one.
func allIdentical(points []Point) bool {
	first := points[0]
	for _, p := range points[1:] {
		for j, v := range p {
			if v != first[j] {
				return false
			}
		}
	}
	return true
}

// sortInt32s sorts s ascending. Insertion sort below a small threshold
// (neighbour lists are usually tiny), stdlib sort above it.
func sortInt32s(s []int32) {
	// Runs on every neighbour query, so no sort.Slice: its reflected
	// swaps and closure allocation dominate grid lookups at window
	// scale. Insertion sort for short lists, median-of-three quicksort
	// recursing on the smaller half otherwise.
	for len(s) > 24 {
		mid := len(s) / 2
		hi := len(s) - 1
		if s[mid] < s[0] {
			s[mid], s[0] = s[0], s[mid]
		}
		if s[hi] < s[0] {
			s[hi], s[0] = s[0], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := 0, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if j+1 < len(s)-i {
			sortInt32s(s[:j+1])
			s = s[i:]
		} else {
			sortInt32s(s[i:])
			s = s[:j+1]
		}
	}
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
