package detect

import (
	"math"

	"dbsherlock/internal/core"
	"dbsherlock/internal/dbscan"
	"dbsherlock/internal/metrics"
	"dbsherlock/internal/stats"
)

// Stream is the incremental counterpart of Detect for an always-on
// monitor: rows are appended as they arrive, a sliding window of the
// last windowCap rows is kept, and Detect answers over the current
// window with output byte-identical to running the batch Detect on a
// snapshot of it (pinned by golden tests).
//
// The batch pipeline recomputes everything per pass: per-attribute
// normalization, the Equation (4) sliding-median sweep, and the DBSCAN
// point set. Stream instead keeps per-attribute state across ticks —
// monotonic min/max deques over the raw window, a sorted multiset of
// normalized values for the overall median, and a continuation of the
// tau-window median sweep — so a tick costs O(rows-added) per attribute
// when the window's min/max are stable, falling back to a full
// per-attribute rebuild (the batch cost) when they shift. Equality is
// exact because every maintained quantity is rebuilt from scratch the
// moment its normalization inputs change, and the potential-power
// maximum over window medians is attained at the median set's extremes,
// which the deques track bitwise.
//
// Stream is not safe for concurrent use; serialize Append and Detect.
type Stream struct {
	p       Params
	tau     int // effective sliding-window length (>= 1)
	cap     int // window capacity in rows
	workers int

	names []string
	attrs []attrStream

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
	// so every value here is always bitwise what the batch pipeline
	// would compute on the current window.
	built     bool
	ok        bool
	min, max  float64
	prevRows  int
	prevTotal int

	sortedNorm []float64 // sorted non-NaN normalized values of the window
	tail       []float64 // sorted non-NaN normalized values of the last tau rows
	meds       []float64 // sliding-window medians; meds[i] ends at row medBase+i
	medBase    int       // absolute end row of meds[0]
	medMin     []idxVal  // monotonic deques over meds (NaN medians skipped)
	medMax     []idxVal

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

// Append ingests a chunk of aligned statistics. The caller has already
// validated schema and timestamps (Watch.Append); Append only consumes
// the numeric columns, in dataset order.
func (s *Stream) Append(ds *metrics.Dataset) {
	if ds == nil || ds.Rows() == 0 {
		return
	}
	if s.attrs == nil {
		for i := 0; i < ds.NumAttrs(); i++ {
			if ds.ColumnAt(i).Attr.Type == metrics.Numeric {
				s.names = append(s.names, ds.ColumnAt(i).Attr.Name)
				s.attrs = append(s.attrs, attrStream{ring: make([]float64, s.cap)})
			}
		}
	}
	n := ds.Rows()
	k := 0
	for i := 0; i < ds.NumAttrs(); i++ {
		col := ds.ColumnAt(i)
		if col.Attr.Type != metrics.Numeric {
			continue
		}
		s.attrs[k].push(col.Num, s.total, s.cap)
		k++
	}
	s.total += n
	s.rows = s.total
	if s.rows > s.cap {
		s.rows = s.cap
	}
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
// the batch pipeline does.
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
	rows := s.rows
	if s.region == nil || s.region.Len() != rows {
		s.region = metrics.NewRegion(rows)
	} else {
		s.region.Reset()
	}
	res := Result{Abnormal: s.region}
	if rows == 0 {
		return res
	}
	lo := s.total - rows

	core.ForEach(len(s.attrs), s.workers, func(k int) {
		s.attrs[k].update(lo, rows, s.tau, s.total, s.cap)
	})

	s.selIdx = s.selIdx[:0]
	s.selected = s.selected[:0]
	for k := range s.attrs {
		if s.attrs[k].pp > s.p.PotentialThreshold {
			s.selIdx = append(s.selIdx, k)
			s.selected = append(s.selected, s.names[k])
		}
	}
	if len(s.selIdx) == 0 {
		return res
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

	s.lk = dbscan.KDistInto(s.lk, pts, s.p.MinPts)
	eps := s.lk[rows-1] / 4
	if floor := 1.5 * s.lk[rows/2]; floor > eps {
		eps = floor
	}
	if eps <= 0 {
		return res
	}
	res.Epsilon = eps

	s.labels = dbscan.ClusterInto(s.labels, pts, eps, s.p.MinPts)
	// Dense cluster sizes instead of dbscan.Sizes' map: no per-tick
	// allocation, same counts.
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
	return res
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
		// every normalized value 0 → pp 0. Either way the batch pipeline
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
	if k := newBase - a.medBase; k > 0 {
		copy(a.meds, a.meds[k:])
		a.meds = a.meds[:len(a.meds)-k]
		a.medBase = newBase
	}
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

// rebuild recomputes the sorted state from the ring exactly as the
// batch pipeline would: normalized multiset, then the full
// SlidingWindowMedians sweep with an effective tau clamped to the
// window length.
func (a *attrStream) rebuild(lo, rows, tau, cap int) {
	a.sortedNorm = a.sortedNorm[:0]
	a.tail = a.tail[:0]
	a.meds = a.meds[:0]
	a.medMin = a.medMin[:0]
	a.medMax = a.medMax[:0]

	for i := 0; i < rows; i++ {
		if nx := a.norm(a.ring[(lo+i)%cap]); !math.IsNaN(nx) {
			a.sortedNorm = stats.InsertSorted(a.sortedNorm, nx)
		}
	}

	effTau := tau
	if effTau > rows {
		effTau = rows
	}
	for i := 0; i < effTau; i++ {
		if nx := a.norm(a.ring[(lo+i)%cap]); !math.IsNaN(nx) {
			a.tail = stats.InsertSorted(a.tail, nx)
		}
	}
	a.medBase = lo + effTau - 1
	a.pushMed(a.medBase, stats.MedianSorted(a.tail))
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

// pushMed records the median of the window ending at absolute row r and
// feeds the median extreme deques (NaN medians contribute nothing to
// potential power, as in the batch sweep).
func (a *attrStream) pushMed(r int, m float64) {
	a.meds = append(a.meds, m)
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
