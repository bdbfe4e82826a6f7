package detect

import (
	"context"
	"fmt"
	"math"
	"slices"

	"dbsherlock/internal/core"
	"dbsherlock/internal/dbscan"
	"dbsherlock/internal/metrics"
	"dbsherlock/internal/stats"
)

// Stream is the Section 7 detector over a sliding window: rows are
// appended as they arrive, the last windowCap rows are kept, and Detect
// answers over the current window. The stream is the window's one
// store: a ring of timestamps and one ring per column, numeric or
// categorical, each holding absolute row r at r%windowCap, so the
// window can be copied out whole (Watch.Window). Batch detection
// (DetectCtx) is a one-shot Stream over the whole dataset, so a tick's
// output is byte-identical to Detect on a snapshot of its window, and
// golden tests pin both to the verbatim pre-stream batch pipeline.
//
// An attribute's potential power (Equation 4) is the largest absolute
// difference between the median of its normalized values and the
// median of any tau-row window of them: high for an abrupt, sustained
// level shift, low for flat or white-noise attributes. Equation 2's
// normalization (x − min)/(max − min) is monotone, so under a finite
// span it keeps the window's sorted order and every median's order
// statistics: the medians can be found in raw units and normalized
// afterwards. Append therefore keeps each attribute's state in raw
// units, whatever the window's extremes: min/max deques, the last tau
// rows sorted, and for every tau-window the ring offsets of its median's
// order statistics. Detect selects the overall median's order statistics
// from the raw window, normalizes the medians of the tau-windows added
// since the last tick into min/max deques, and takes Equation 4 from the
// deques' fronts. When the window's min or max has moved, it normalizes
// every tau-window median again from its offsets, in O(rows) with no
// sort. A window whose extremes are infinite, or whose span overflows,
// maps some finite values to NaN; there Equation 4 is computed from
// scratch, as the batch reference does. Every value is bitwise what a
// from-scratch pass computes, up to the sign of a zero median, which
// |overall − m| does not see.
//
// Stream is not safe for concurrent use; serialize Append and Detect.
type Stream struct {
	p       Params
	tau     int // effective sliding-window length (>= 1)
	cap     int // window capacity in rows
	workers int

	schema []metrics.Attribute // every column, in dataset order
	times  []int64             // timestamps; absolute row r lives at times[r%cap]
	cats   [][]string          // one ring per categorical column, in schema order
	names  []string            // the numeric columns' names, in schema order
	attrs  []attrStream        // one per numeric column, in schema order

	total int // rows ever appended; window is absolute rows [total-rows, total)
	rows  int // current window length: min(total, cap)

	// Reused per-tick scratch. Detect's Result aliases region and
	// selected; it is valid only until the next Detect call.
	sel      [][]float64 // one buffer per worker for the overall median's selection
	flat     []float64
	pts      []dbscan.Point
	lk       []float64
	labels   []int
	sizes    []int
	selIdx   []int
	selected []string
	region   *metrics.Region
}

// idxVal is one monotonic-deque entry: a value tagged with the absolute
// row (or window-position) index it came from, so expired entries can
// be popped from the front as the window slides.
type idxVal struct {
	idx int
	v   float64
}

// attrStream is the incremental detection state of one numeric
// attribute.
type attrStream struct {
	ring []float64 // raw values; absolute row r lives at ring[r%cap]

	// Raw-unit state, kept by push whatever the window's extremes.
	// minDq and maxDq are monotonic deques over the raw window; their
	// fronts are bitwise stats.MinMax over it, as strict-inequality pops
	// keep the first-encountered extreme like MinMax's strict < and >.
	// When the window is longer than tau, tail holds the ring offsets of
	// the non-NaN values among the last tau rows in ascending value
	// order, and med holds, at 2·(r%cap), the ring offsets of the two
	// middle order statistics (equal for an odd count, −1 for none) of
	// the tau-window ending at absolute row r.
	minDq, maxDq []idxVal
	tail         []int32
	med          []int32

	// Normalized state, valid while built and the window's extremes
	// are bitwise (min, max): min/max deques over the normalized
	// tau-window medians, keyed by each window's end row, fed up to end
	// row seen-1.
	built          bool
	ok             bool // the window has a non-NaN value
	min, max       float64
	seen           int
	medMin, medMax []idxVal

	pp float64 // potential power as of the last Detect
}

// NewStream builds a streaming detector over a window of windowCap rows.
// workers bounds the per-attribute fan-out of each Detect (<= 0 means
// one per CPU); the output is byte-identical for any worker count. The
// schema is fixed by the first Append; only numeric attributes
// participate, as in Detect.
func NewStream(p Params, windowCap, workers int) *Stream {
	if windowCap <= 0 {
		windowCap = 1
	}
	tau := p.Tau
	if tau <= 0 {
		tau = 1 // mirrors SlidingWindowMedians' tau floor
	}
	return &Stream{p: p, tau: tau, cap: windowCap, workers: core.ResolveWorkers(workers)}
}

// Rows returns the number of rows currently in the window.
func (s *Stream) Rows() int { return s.rows }

// Append ingests a chunk of aligned statistics: its timestamps and
// every column go into the window's rings. The first chunk fixes the
// schema. The caller has already validated schema and timestamps
// against the window (Watch.Append).
func (s *Stream) Append(ds *metrics.Dataset) {
	if ds == nil || ds.Rows() == 0 {
		return
	}
	if s.schema == nil {
		s.schema = ds.Attributes()
		s.times = make([]int64, s.cap)
		for _, a := range s.schema {
			if a.Type == metrics.Numeric {
				s.names = append(s.names, a.Name)
				st := attrStream{ring: make([]float64, s.cap)}
				if s.cap > s.tau {
					st.tail = make([]int32, 0, s.tau)
					st.med = make([]int32, 2*s.cap)
				}
				s.attrs = append(s.attrs, st)
			} else {
				s.cats = append(s.cats, make([]string, s.cap))
			}
		}
	}
	n := ds.Rows()
	for i, t := range ds.Timestamps() {
		s.times[(s.total+i)%s.cap] = t
	}
	k, c := 0, 0
	for i := range s.schema {
		col := ds.ColumnAt(i)
		if col.Attr.Type == metrics.Numeric {
			s.attrs[k].push(col.Num, s.total, s.cap, s.tau)
			k++
			continue
		}
		for j, v := range col.Cat {
			s.cats[c][(s.total+j)%s.cap] = v
		}
		c++
	}
	s.total += n
	s.rows = s.total
	if s.rows > s.cap {
		s.rows = s.cap
	}
}

// timeAt returns the timestamp of absolute row r, which must be in the
// window.
func (s *Stream) timeAt(r int) int64 { return s.times[r%s.cap] }

// window copies the window out as a standalone dataset, oldest row
// first, columns in schema order. Every error the dataset constructors
// could return is ruled out by how the rings are filled, so one is a
// broken invariant and panics.
func (s *Stream) window() *metrics.Dataset {
	lo := s.total - s.rows
	ds, err := metrics.NewDataset(unroll(s.times, lo, s.rows))
	if err != nil {
		panic(fmt.Sprintf("detect: broken invariant, Watch.Append admits only "+
			"increasing timestamps, yet the window's are not: %v", err))
	}
	k, c := 0, 0
	for _, a := range s.schema {
		if a.Type == metrics.Numeric {
			err = ds.AddNumeric(a.Name, unroll(s.attrs[k].ring, lo, s.rows))
			k++
		} else {
			err = ds.AddCategorical(a.Name, unroll(s.cats[c], lo, s.rows))
			c++
		}
		if err != nil {
			panic(fmt.Sprintf("detect: broken invariant, the schema came from a valid "+
				"dataset and every ring holds the window's rows, yet a column was rejected: %v", err))
		}
	}
	return ds
}

// unroll copies the n ring entries starting at absolute row lo out in
// row order.
func unroll[T any](ring []T, lo, n int) []T {
	return unrollInto(make([]T, 0, n), ring, lo, n)
}

// unrollInto is unroll into dst's storage, grown as needed.
func unrollInto[T any](dst, ring []T, lo, n int) []T {
	out := dst[:0]
	if n == 0 {
		return out
	}
	start := lo % len(ring)
	if end := start + n; end > len(ring) {
		return append(append(out, ring[start:]...), ring[:end-len(ring)]...)
	}
	return append(out, ring[start:start+n]...)
}

// push appends raw values for absolute rows [total, total+len(vals))
// and keeps the raw-unit state: the min/max deques and, when the
// window is longer than tau, the sorted last tau rows and each new
// tau-window's median offsets.
func (a *attrStream) push(vals []float64, total, cap, tau int) {
	slot := total % cap
	out := ((total-tau)%cap + cap) % cap // slot of row total-tau, when the tail is kept
	for i, x := range vals {
		r := total + i
		if a.med != nil && r >= tau && !math.IsNaN(a.ring[out]) {
			// Row r-tau leaves the last tau rows. cap > tau, so its
			// ring slot still holds it.
			a.removeTail(int32(out))
		}
		a.ring[slot] = x
		if !math.IsNaN(x) {
			lo := r + 1 - cap // oldest row still in the window after this push
			for len(a.minDq) > 0 && a.minDq[0].idx < lo {
				a.minDq = a.minDq[1:]
			}
			for len(a.maxDq) > 0 && a.maxDq[0].idx < lo {
				a.maxDq = a.maxDq[1:]
			}
			for n := len(a.minDq); n > 0 && a.minDq[n-1].v > x; n-- {
				a.minDq = a.minDq[:n-1]
			}
			a.minDq = append(a.minDq, idxVal{r, x})
			for n := len(a.maxDq); n > 0 && a.maxDq[n-1].v < x; n-- {
				a.maxDq = a.maxDq[:n-1]
			}
			a.maxDq = append(a.maxDq, idxVal{r, x})
		}
		if a.med != nil {
			if !math.IsNaN(x) {
				a.insertTail(int32(slot), x)
			}
			if r >= tau-1 {
				lo, hi := int32(-1), int32(-1)
				if c := len(a.tail); c > 0 {
					lo, hi = a.tail[(c-1)/2], a.tail[c/2]
				}
				a.med[2*slot], a.med[2*slot+1] = lo, hi
			}
		}
		if slot++; slot == cap {
			slot = 0
		}
		if out++; out == cap {
			out = 0
		}
	}
}

// insertTail inserts ring offset slot, holding x, into the sorted tail,
// after the entries not above x: one insertion-sort step, as the tail
// holds at most tau entries.
func (a *attrStream) insertTail(slot int32, x float64) {
	t := append(a.tail, slot)
	i := len(t) - 1
	for ; i > 0 && a.ring[t[i-1]] > x; i-- {
		t[i] = t[i-1]
	}
	t[i] = slot
	a.tail = t
}

// removeTail removes ring offset slot from the tail.
func (a *attrStream) removeTail(slot int32) {
	i := slices.Index(a.tail, slot)
	a.tail = append(a.tail[:i], a.tail[i+1:]...)
}

// norm is Equation (2) on one value under the attribute's cached window
// extremes — the same formula stats.Normalize applies, preserving NaN.
// Note a non-NaN input can normalize to NaN (infinite extremes); all
// skip-NaN decisions below therefore look at the normalized value, as
// a sweep over stats.Normalize's output does.
func (a *attrStream) norm(x float64) float64 {
	if math.IsNaN(x) {
		return math.NaN()
	}
	if !a.ok {
		return 0
	}
	span := a.max - a.min
	if span == 0 {
		return 0
	}
	return (x - a.min) / span
}

// normPoint is norm with Detect's NaN→0 mapping for cluster points.
func (a *attrStream) normPoint(x float64) float64 {
	v := a.norm(x)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// Detect runs the Section 7 pipeline over the current window. The
// result is byte-identical to Detect(snapshot, p) on a dataset holding
// the same rows. Result.Abnormal and Result.SelectedAttrs alias
// Stream-owned scratch: they are valid until the next Detect call, and
// callers that retain them (the monitor's alert path) must clone.
func (s *Stream) Detect() Result {
	res, _ := s.detect(context.Background())
	return res
}

// detect is Detect under a context, checked between attributes'
// potential-power updates, before the k-dist stage and between it and
// clustering.
func (s *Stream) detect(ctx context.Context) (Result, error) {
	rows := s.rows
	if s.region == nil || s.region.Len() != rows {
		s.region = metrics.NewRegion(rows)
	} else {
		s.region.Reset()
	}
	res := Result{Abnormal: s.region}
	if rows == 0 {
		return res, nil
	}
	lo := s.total - rows

	// Select attributes with an abrupt sustained change (Equation 4).
	if len(s.sel) < s.workers {
		s.sel = make([][]float64, s.workers)
	}
	err := core.ForEachWorkerCtx(ctx, len(s.attrs), s.workers, func(w, k int) {
		s.attrs[k].update(lo, rows, s.tau, s.total, s.cap, &s.sel[w])
	})
	if err != nil {
		return res, err
	}
	s.selIdx = s.selIdx[:0]
	s.selected = s.selected[:0]
	for k := range s.attrs {
		if s.attrs[k].pp > s.p.PotentialThreshold {
			s.selIdx = append(s.selIdx, k)
			s.selected = append(s.selected, s.names[k])
		}
	}
	if len(s.selIdx) == 0 {
		return res, nil
	}
	res.SelectedAttrs = s.selected

	// Columnar point set: one flat backing array, points as subslices.
	d := len(s.selIdx)
	if need := rows * d; cap(s.flat) < need {
		s.flat = make([]float64, need)
	}
	flat := s.flat[:rows*d]
	for c, k := range s.selIdx {
		a := &s.attrs[k]
		slot := lo % s.cap
		for i := 0; i < rows; i++ {
			flat[i*d+c] = a.normPoint(a.ring[slot])
			if slot++; slot == s.cap {
				slot = 0
			}
		}
	}
	if cap(s.pts) < rows {
		s.pts = make([]dbscan.Point, rows)
	}
	pts := s.pts[:rows]
	for i := range pts {
		pts[i] = flat[i*d : (i+1)*d]
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	// eps from the k-dist list with k = minPts; a non-positive eps means
	// the selected attributes are constant over the window (degenerate
	// geometry) and nothing separates.
	var eps float64
	s.lk, s.labels, _ = dbscan.KDistCluster(s.lk, s.labels, pts, s.p.MinPts, func(lk []float64) (float64, bool) {
		eps = epsilon(lk)
		if eps <= 0 {
			return eps, false
		}
		err = ctx.Err()
		return eps, err == nil
	})
	if eps <= 0 {
		return res, nil
	}
	res.Epsilon = eps
	if err != nil {
		return res, err
	}

	// Dense cluster sizes: no per-tick allocation.
	s.sizes = s.sizes[:0]
	for _, l := range s.labels {
		if l == dbscan.Noise {
			continue
		}
		for len(s.sizes) <= l {
			s.sizes = append(s.sizes, 0)
		}
		s.sizes[l]++
	}
	small := int(s.p.SmallClusterFraction * float64(rows))
	for i, l := range s.labels {
		if l == dbscan.Noise || s.sizes[l] < small {
			s.region.Add(i)
		}
	}
	return res, nil
}

// update brings one attribute's potential power to the current window
// [lo, lo+rows). Under an unchanged finite span it normalizes only the
// tau-window medians added since the last tick; under a moved extreme
// it normalizes them all again from their offsets.
func (a *attrStream) update(lo, rows, tau, total, cap int, sel *[]float64) {
	// NaN-only pushes don't pop expired entries; do it before reading.
	for len(a.minDq) > 0 && a.minDq[0].idx < lo {
		a.minDq = a.minDq[1:]
	}
	for len(a.maxDq) > 0 && a.maxDq[0].idx < lo {
		a.maxDq = a.maxDq[1:]
	}
	ok := len(a.minDq) > 0
	var lowest, highest float64
	if ok {
		lowest, highest = a.minDq[0].v, a.maxDq[0].v
	}
	same := a.built && math.Float64bits(a.min) == math.Float64bits(lowest) &&
		math.Float64bits(a.max) == math.Float64bits(highest)
	a.ok, a.min, a.max = ok, lowest, highest
	a.built = false
	span := highest - lowest
	switch {
	case !ok || span == 0 || rows <= tau:
		// An all-NaN window has a NaN overall median, a constant one
		// normalizes to all zeros, and a window of at most tau rows
		// is its own only tau-window: a from-scratch pass reports zero
		// potential for each.
		a.pp = 0
		return
	case math.IsInf(span, 0) || math.IsNaN(span):
		*sel = unrollInto(*sel, a.ring, lo, rows)
		a.pp = scratchPower(*sel, tau)
		return
	}
	first := lo + tau - 1 // end row of the window's first tau-window
	from := first
	if same {
		from = max(a.seen, first)
		for len(a.medMin) > 0 && a.medMin[0].idx < first {
			a.medMin = a.medMin[1:]
		}
		for len(a.medMax) > 0 && a.medMax[0].idx < first {
			a.medMax = a.medMax[1:]
		}
	} else {
		a.medMin, a.medMax = a.medMin[:0], a.medMax[:0]
	}
	for r, slot := from, from%cap; r < total; r++ {
		if l, h := a.med[2*slot], a.med[2*slot+1]; l >= 0 {
			a.pushMed(r, a.mid(a.ring[l], a.ring[h], l == h))
		}
		if slot++; slot == cap {
			slot = 0
		}
	}
	a.built, a.seen = true, total

	overall := a.overall(lo, rows, sel)
	pp := math.Abs(overall - a.medMin[0].v)
	if d := math.Abs(overall - a.medMax[0].v); d > pp {
		pp = d
	}
	a.pp = pp
}

// mid normalizes the middle order statistics of a window's non-NaN
// values, lo and hi, and takes their median as stats.Median and
// stats.SlidingWindowMedians do after normalizing: lo alone for an odd
// count, else the two interpolated at 1/2.
func (a *attrStream) mid(lo, hi float64, odd bool) float64 {
	x := a.norm(lo)
	if odd {
		return x
	}
	return x*0.5 + a.norm(hi)*0.5
}

// overall is the normalized median of the window's non-NaN values. It
// selects the raw order statistics in *sel (grown as needed) and
// normalizes them, which the monotone normalization allows.
func (a *attrStream) overall(lo, rows int, sel *[]float64) float64 {
	v := unrollInto(*sel, a.ring, lo, rows)
	*sel = v
	n := 0
	for _, x := range v {
		if !math.IsNaN(x) {
			v[n] = x
			n++
		}
	}
	v = v[:n]
	k := (n - 1) / 2
	selectRank(v, k)
	hi := v[k]
	if n%2 == 0 {
		hi = slices.Min(v[k+1:])
	}
	return a.mid(v[k], hi, n%2 == 1)
}

// selectRank reorders v, which holds finite values only, so that v[k]
// is its k-th smallest value (from 0), no value before it is greater
// and none after it smaller. Each round partitions around a median of
// three, first the values below the pivot to the front, then the ones
// equal to it after them, taking "below" from the sign of the
// difference so the loop has no data-dependent branch. That order puts
// −0 before +0, which refines numeric order and leaves every order
// statistic's value as it was. After 64 rounds what is left is sorted.
func selectRank(v []float64, k int) {
	lo, hi := 0, len(v)
	for round := 0; hi-lo > 1; round++ {
		if round == 64 {
			slices.Sort(v[lo:hi])
			return
		}
		a, b, c := v[lo], v[lo+(hi-lo)/2], v[hi-1]
		if b < a {
			a, b = b, a
		}
		if c < b {
			b = max(a, c)
		}
		p := b
		s := lo // v[lo:s] < p
		for i := lo; i < hi; i++ {
			x := v[i]
			v[i] = v[s]
			v[s] = x
			s += int(math.Float64bits(x-p) >> 63)
		}
		if k < s {
			hi = s
			continue
		}
		e := s // v[s:e] == p
		for i := s; i < hi; i++ {
			x := v[i]
			v[i] = v[e]
			v[e] = x
			e += 1 - int(math.Float64bits(p-x)>>63)
		}
		if k < e {
			return
		}
		lo = e
	}
}

// scratchPower is Equation (4) from scratch over one attribute's raw
// window values, as the batch reference computes it. The stream uses
// it where the window's extremes are infinite or its span overflows.
func scratchPower(values []float64, tau int) float64 {
	norm := stats.Normalize(values)
	overall := stats.Median(norm)
	if math.IsNaN(overall) {
		return 0
	}
	var pp float64
	for _, m := range stats.SlidingWindowMedians(norm, tau) {
		if d := math.Abs(overall - m); d > pp {
			pp = d
		}
	}
	return pp
}

// pushMed feeds the median of the window ending at absolute row r to
// the median extreme deques.
func (a *attrStream) pushMed(r int, m float64) {
	for n := len(a.medMin); n > 0 && a.medMin[n-1].v > m; n-- {
		a.medMin = a.medMin[:n-1]
	}
	a.medMin = append(a.medMin, idxVal{r, m})
	for n := len(a.medMax); n > 0 && a.medMax[n-1].v < m; n-- {
		a.medMax = a.medMax[:n-1]
	}
	a.medMax = append(a.medMax, idxVal{r, m})
}
