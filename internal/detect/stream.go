package detect

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

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
// level shift, low for flat or white-noise attributes. A one-shot pass
// computes it from scratch. A long-lived Stream keeps per-attribute
// state across ticks — monotonic min/max deques over the raw window, a
// sorted multiset of normalized values for the overall median, and a
// continuation of the tau-window median sweep — so a tick costs
// O(rows-added) per attribute when the window's min/max are stable,
// falling back to a full per-attribute rebuild when they shift.
// Equality is exact because every maintained quantity is rebuilt from
// scratch the moment its normalization inputs change, and the
// potential-power maximum over window medians is attained at the median
// set's extremes, which the deques track bitwise.
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
	ring    []float64 // raw values; absolute row r lives at ring[r%cap]
	dropped []float64 // raw values evicted since the last Detect

	// Monotonic deques over the raw window, maintained on every append.
	// Their fronts are bitwise-identical to stats.MinMax over the
	// window: strict-inequality pops keep the first-encountered extreme,
	// matching MinMax's strict < and > updates.
	minDq, maxDq []idxVal

	// Normalization-dependent state, valid only while (ok, min, max)
	// match the cached triple below. Any change triggers a full rebuild,
	// so every value here is always bitwise what a from-scratch pass
	// would compute on the current window.
	built     bool
	ok        bool
	min, max  float64
	prevRows  int
	prevTotal int

	sortedNorm []float64 // sorted non-NaN normalized values of the window
	tail       []float64 // sorted non-NaN normalized values of the last tau rows

	// Monotonic deques over the sliding-window medians, keyed by each
	// window's absolute end row (NaN medians skipped).
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
				s.attrs = append(s.attrs, attrStream{ring: make([]float64, s.cap)})
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
			s.attrs[k].push(col.Num, s.total, s.cap)
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
	out := make([]T, 0, n)
	if n == 0 {
		return out
	}
	start := lo % len(ring)
	if end := start + n; end > len(ring) {
		return append(append(out, ring[start:]...), ring[:end-len(ring)]...)
	}
	return append(out, ring[start:start+n]...)
}

// push appends raw values for absolute rows [total, total+len(vals)),
// capturing evicted values and maintaining the raw min/max deques.
func (a *attrStream) push(vals []float64, total, cap int) {
	for i, x := range vals {
		r := total + i
		if r >= cap {
			// The value of row r-cap is about to be overwritten; keep it
			// so Detect can unwind it from the sorted multiset. If
			// Detect hasn't run for over a window's worth of rows the
			// incremental state is a lost cause — drop it and rebuild.
			if len(a.dropped) >= cap {
				a.dropped = a.dropped[:0]
				a.built = false
			} else {
				a.dropped = append(a.dropped, a.ring[r%cap])
			}
		}
		a.ring[r%cap] = x
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
	}
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
	err := core.ForEachCtx(ctx, len(s.attrs), s.workers, func(k int) {
		s.attrs[k].update(lo, rows, s.tau, s.total, s.cap)
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
		for i := 0; i < rows; i++ {
			flat[i*d+c] = a.normPoint(a.ring[(lo+i)%s.cap])
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
// [lo, lo+rows), incrementally when the cached normalization is still
// valid and by full rebuild otherwise.
func (a *attrStream) update(lo, rows, tau, total, cap int) {
	// NaN-only pushes don't pop expired entries; do it before reading.
	for len(a.minDq) > 0 && a.minDq[0].idx < lo {
		a.minDq = a.minDq[1:]
	}
	for len(a.maxDq) > 0 && a.maxDq[0].idx < lo {
		a.maxDq = a.maxDq[1:]
	}
	ok := len(a.minDq) > 0
	var min, max float64
	if ok {
		min, max = a.minDq[0].v, a.maxDq[0].v
	}
	if !ok || max-min == 0 {
		// All-NaN window → overall median NaN → pp 0; constant window →
		// every normalized value 0 → pp 0. Either way a from-scratch pass
		// reports zero potential, and the sorted state is stale.
		a.pp = 0
		a.built = false
		a.invalidate(ok, min, max, rows, total)
		return
	}
	added := total - a.prevTotal
	sameNorm := a.built && a.ok == ok &&
		math.Float64bits(a.min) == math.Float64bits(min) &&
		math.Float64bits(a.max) == math.Float64bits(max)
	if sameNorm && a.prevRows >= tau && rows >= tau && added <= rows-tau {
		a.advance(lo, tau, total, cap)
	} else {
		a.ok, a.min, a.max = ok, min, max
		a.rebuild(lo, rows, tau, cap)
	}
	a.finish(rows, total)

	overall := stats.MedianSorted(a.sortedNorm)
	pp := 0.0
	if len(a.medMin) > 0 {
		if d := math.Abs(overall - a.medMin[0].v); d > pp {
			pp = d
		}
		if d := math.Abs(overall - a.medMax[0].v); d > pp {
			pp = d
		}
	}
	a.pp = pp
}

// invalidate records the cache key and discards pending eviction work
// after a tick that produced no sorted state.
func (a *attrStream) invalidate(ok bool, min, max float64, rows, total int) {
	a.ok, a.min, a.max = ok, min, max
	a.finish(rows, total)
}

func (a *attrStream) finish(rows, total int) {
	a.dropped = a.dropped[:0]
	a.prevRows = rows
	a.prevTotal = total
}

// advance applies the rows evicted and appended since the last tick to
// the sorted state. Valid only when the normalization extremes are
// unchanged (so retained normalized values are bitwise stable) and the
// advance is small enough that every tau-window predecessor row is
// still in the ring.
func (a *attrStream) advance(lo, tau, total, cap int) {
	for _, x := range a.dropped {
		if nx := a.norm(x); !math.IsNaN(nx) {
			a.sortedNorm = stats.RemoveSorted(a.sortedNorm, nx)
		}
	}
	for r := a.prevTotal; r < total; r++ {
		if nx := a.norm(a.ring[r%cap]); !math.IsNaN(nx) {
			a.sortedNorm = stats.InsertSorted(a.sortedNorm, nx)
		}
	}

	// Window positions are keyed by their absolute end row; the first
	// surviving position ends at lo+tau-1.
	newBase := lo + tau - 1
	for len(a.medMin) > 0 && a.medMin[0].idx < newBase {
		a.medMin = a.medMin[1:]
	}
	for len(a.medMax) > 0 && a.medMax[0].idx < newBase {
		a.medMax = a.medMax[1:]
	}

	// Continue the tau-window median sweep over the appended rows: the
	// same remove-outgoing/insert-incoming shift SlidingWindowMedians
	// performs, picked up where the last tick left off.
	for r := a.prevTotal; r < total; r++ {
		if out := a.norm(a.ring[(r-tau)%cap]); !math.IsNaN(out) {
			a.tail = stats.RemoveSorted(a.tail, out)
		}
		if in := a.norm(a.ring[r%cap]); !math.IsNaN(in) {
			a.tail = stats.InsertSorted(a.tail, in)
		}
		a.pushMed(r, stats.MedianSorted(a.tail))
	}
}

// rebuild recomputes the sorted state from the ring from scratch: the
// normalized multiset, then the full SlidingWindowMedians sweep with an
// effective tau clamped to the window length.
func (a *attrStream) rebuild(lo, rows, tau, cap int) {
	a.sortedNorm = slices.Grow(a.sortedNorm[:0], rows)
	a.tail = a.tail[:0]
	a.medMin = a.medMin[:0]
	a.medMax = a.medMax[:0]

	// One sort rather than rows insertions. It may order -0 and +0
	// differently, which changes at most the sign of a zero median;
	// potential power is |overall − m| and does not see it.
	for i := 0; i < rows; i++ {
		if nx := a.norm(a.ring[(lo+i)%cap]); !math.IsNaN(nx) {
			a.sortedNorm = append(a.sortedNorm, nx)
		}
	}
	sort.Float64s(a.sortedNorm)

	effTau := tau
	if effTau > rows {
		effTau = rows
	}
	for i := 0; i < effTau; i++ {
		if nx := a.norm(a.ring[(lo+i)%cap]); !math.IsNaN(nx) {
			a.tail = stats.InsertSorted(a.tail, nx)
		}
	}
	a.pushMed(lo+effTau-1, stats.MedianSorted(a.tail))
	for w := 1; w+effTau <= rows; w++ {
		if out := a.norm(a.ring[(lo+w-1)%cap]); !math.IsNaN(out) {
			a.tail = stats.RemoveSorted(a.tail, out)
		}
		if in := a.norm(a.ring[(lo+w+effTau-1)%cap]); !math.IsNaN(in) {
			a.tail = stats.InsertSorted(a.tail, in)
		}
		a.pushMed(lo+w+effTau-1, stats.MedianSorted(a.tail))
	}
	a.built = true
}

// pushMed feeds the median of the window ending at absolute row r to
// the median extreme deques (NaN medians contribute nothing to
// potential power).
func (a *attrStream) pushMed(r int, m float64) {
	if math.IsNaN(m) {
		return
	}
	for n := len(a.medMin); n > 0 && a.medMin[n-1].v > m; n-- {
		a.medMin = a.medMin[:n-1]
	}
	a.medMin = append(a.medMin, idxVal{r, m})
	for n := len(a.medMax); n > 0 && a.medMax[n-1].v < m; n-- {
		a.medMax = a.medMax[:n-1]
	}
	a.medMax = append(a.medMax, idxVal{r, m})
}
