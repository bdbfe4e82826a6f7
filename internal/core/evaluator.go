package core

import (
	"context"
	"sync"
	"unsafe"

	"dbsherlock/internal/metrics"
	"dbsherlock/internal/obs"
)

// Evaluator scores predicates against one (dataset, abnormal, normal)
// diagnosis context, caching the labeled-and-filtered partition space of
// each attribute. Confidence computation (Equation 3) scores every
// causal model's predicates against the same context, so the cache turns
// an O(models x predicates x rows) recomputation into one partition
// build per attribute. Generate runs Algorithm 1 over the same context
// and stores every space it builds, so ranking after it builds nothing.
//
// An Evaluator is safe for concurrent use: the space cache is guarded by
// an RWMutex, and because space construction is deterministic, losers of
// a racing build converge on the same labels. Callers that score many
// models should PrepareCtx the needed attributes first so the scoring
// phase runs against a read-mostly cache.
//
// An Evaluator never carries a trace — one may outlive the request that
// built it and serve many others — so callers hand their trace to
// Generate and PrepareCtx instead. It is bound to the dataset state it
// was built over: spaces come from that state's prepared index, and a
// column added afterwards falls outside the slots and yields no space.
type Evaluator struct {
	ds       *metrics.Dataset
	abnormal *metrics.Region
	normal   *metrics.Region
	p        Params
	prep     *PreparedDataset

	// aRuns/nRuns are the regions' run-length encodings, built once at
	// construction (single-threaded) and shared read-only by every
	// space build.
	aRuns, nRuns []int32

	mu    sync.RWMutex
	slots []slot // by column index, one per column at construction
}

// slot is one column's cached space: num for a numeric column, cat for
// a categorical one, both nil when the column yields no space (constant
// or all-NaN, or no row in either region). Slots are stored by value,
// so caching a space is one write into a slice sized at construction.
type slot struct {
	num    *NumericSpace
	cat    *CategoricalSpace
	nA, nN int32 // num's Abnormal / Normal partitions, counted once at store
	built  bool
}

// numericSlot wraps a filtered numeric space, computing its label
// totals once so Separation never re-scans the full space for them.
func numericSlot(ps *NumericSpace) slot {
	s := slot{num: ps, built: true}
	if ps == nil {
		return s
	}
	for _, l := range ps.Labels {
		switch l {
		case Abnormal:
			s.nA++
		case Normal:
			s.nN++
		}
	}
	return s
}

// NewEvaluator prepares an evaluation context. Spaces are built lazily,
// against the dataset's prepared columnar index (built here on first use;
// see prepared.go), unless Generate stores them first. p.Trace is
// dropped: see PrepareCtx.
func NewEvaluator(ds *metrics.Dataset, abnormal, normal *metrics.Region, p Params) *Evaluator {
	p.Trace = nil
	e := &Evaluator{
		ds: ds, abnormal: abnormal, normal: normal, p: p,
		prep: PreparedFor(ds, p.NumPartitions),
	}
	if ds != nil {
		e.slots = make([]slot, ds.NumAttrs())
	}
	if abnormal != nil {
		e.aRuns = abnormal.RunList()
	}
	if normal != nil {
		e.nRuns = normal.RunList()
	}
	return e
}

// Params returns the evaluation parameters.
func (e *Evaluator) Params() Params { return e.p }

// Dataset returns the dataset this evaluator was built over. Callers
// that retain an evaluator across requests (the diagnosis cache) use
// pointer identity to verify a reused evaluator still matches the
// dataset being diagnosed.
func (e *Evaluator) Dataset() *metrics.Dataset { return e.ds }

// Regions returns the abnormal and normal regions of the evaluation
// context, for the same reuse-validation purpose as Dataset.
func (e *Evaluator) Regions() (abnormal, normal *metrics.Region) {
	return e.abnormal, e.normal
}

// SizeBytes estimates the retained heap footprint of the evaluator: its
// slots, the cached partition spaces and the region pins and run lists
// — the memory a cache holding this evaluator keeps alive beyond the
// dataset itself. Attribute names and category values are the dataset's
// strings, so only their headers count. The estimate walks the slots
// under the read lock, so it is safe to call while the evaluator is in
// concurrent use and reflects lazily added spaces.
func (e *Evaluator) SizeBytes() int64 {
	const (
		evaluatorBytes = int64(unsafe.Sizeof(Evaluator{}))
		slotBytes      = int64(unsafe.Sizeof(slot{}))
		numSpaceBytes  = int64(unsafe.Sizeof(NumericSpace{}))
		catSpaceBytes  = int64(unsafe.Sizeof(CategoricalSpace{}))
		stringBytes    = int64(unsafe.Sizeof(""))
		labelBytes     = int64(unsafe.Sizeof(Label(0)))
		runBytes       = int64(unsafe.Sizeof(int32(0)))
		regionBytes    = int64(unsafe.Sizeof(metrics.Region{}))
	)
	n := evaluatorBytes + slotBytes*int64(len(e.slots)) +
		runBytes*int64(cap(e.aRuns)+cap(e.nRuns))
	e.mu.RLock()
	for _, s := range e.slots {
		if s.num != nil {
			n += numSpaceBytes + labelBytes*int64(cap(s.num.Labels))
		}
		if s.cat != nil {
			n += catSpaceBytes + labelBytes*int64(cap(s.cat.Labels)) +
				stringBytes*int64(cap(s.cat.Values))
		}
	}
	e.mu.RUnlock()
	for _, r := range []*metrics.Region{e.abnormal, e.normal} {
		if r != nil {
			n += regionBytes + int64(r.Len())
		}
	}
	return n
}

// column resolves an attribute name to its slot index. A column added
// to the dataset after construction has no slot and resolves to false.
func (e *Evaluator) column(attr string) (int, bool) {
	i, ok := e.ds.ColumnIndex(attr)
	return i, ok && i < len(e.slots)
}

// PrepareCtx builds the partition spaces of the named attributes up
// front, fanning the per-attribute construction out across the worker
// pool. Duplicate and unknown names are fine (built once / skipped), so
// callers can pass the raw attribute list of a model set. tr (nil-safe)
// counts each known name whose space this call built as spaces_built and
// every other known name as spaces_reused; after Generate every name is
// reused.
//
// Construction is abandoned between attributes once ctx fires and
// ctx.Err() is returned. The cache stays consistent either way — every
// space that finished building remains valid and reusable.
func (e *Evaluator) PrepareCtx(ctx context.Context, attrs []string, workers int, tr *obs.Trace) error {
	// Deduplicate by column index: a flag per column costs far less than
	// a set of names, and unknown names drop out on the way. Stored
	// slots need no worker at all.
	seen := make([]bool, len(e.slots))
	todo := make([]int, 0, len(seen))
	reused := 0
	e.mu.RLock()
	for _, a := range attrs {
		i, ok := e.column(a)
		switch {
		case !ok:
		case seen[i] || e.slots[i].built:
			reused++
		default:
			seen[i] = true
			todo = append(todo, i)
		}
	}
	e.mu.RUnlock()
	tr.Count(obs.CounterSpacesReused, reused)
	resolved := ResolveWorkers(workers)
	scratches := make([]*scratch, EffectiveWorkers(len(todo), resolved))
	for i := range scratches {
		scratches[i] = getScratch()
	}
	err := ForEachWorkerCtx(ctx, len(todo), resolved, func(w, k int) {
		e.space(todo[k], scratches[w], tr)
	})
	for _, sc := range scratches {
		putScratch(sc)
	}
	return err
}

// Separation computes the partition-space separation of one predicate,
// identically to PartitionSeparation but with cached spaces.
func (e *Evaluator) Separation(pred Predicate) float64 {
	i, ok := e.column(pred.Attr)
	if !ok || e.ds.ColumnAt(i).Attr.Type != pred.Type {
		return 0
	}
	s := e.space(i, nil, nil)
	if pred.Type == metrics.Numeric {
		ps := s.num
		if ps == nil {
			return 0
		}
		// The reference scan counts a partition when
		// MatchesNumeric(Midpoint(j)) holds; midpoints are monotone
		// non-decreasing in j, so the matching set is the contiguous
		// range [jLo, jHi) found by binary search with the exact same
		// strict comparisons MatchesNumeric applies — the counts, and
		// therefore the ratios, are identical, without evaluating a
		// midpoint per partition.
		r := len(ps.Labels)
		nA, nN := int(s.nA), int(s.nN)
		if !pred.HasLower && !pred.HasUpper {
			return 0 // MatchesNumeric is false everywhere: zero hits on both sides
		}
		jLo, jHi := 0, r
		if pred.HasLower {
			lo, hi := 0, r
			for lo < hi {
				m := int(uint(lo+hi) >> 1)
				if ps.Midpoint(m) > pred.Lower {
					hi = m
				} else {
					lo = m + 1
				}
			}
			jLo = lo
		}
		if pred.HasUpper {
			lo, hi := jLo, r
			for lo < hi {
				m := int(uint(lo+hi) >> 1)
				if ps.Midpoint(m) < pred.Upper {
					lo = m + 1
				} else {
					hi = m
				}
			}
			jHi = lo
		}
		var hitA, hitN int
		for j := jLo; j < jHi; j++ {
			switch ps.Labels[j] {
			case Abnormal:
				hitA++
			case Normal:
				hitN++
			}
		}
		return ratio(hitA, nA) - ratio(hitN, nN)
	}

	cs := s.cat
	if cs == nil {
		return 0
	}
	var nA, nN, hitA, hitN int
	for j, l := range cs.Labels {
		switch l {
		case Abnormal:
			nA++
			if pred.MatchesCategorical(cs.Values[j]) {
				hitA++
			}
		case Normal:
			nN++
			if pred.MatchesCategorical(cs.Values[j]) {
				hitN++
			}
		}
	}
	return ratio(hitA, nA) - ratio(hitN, nN)
}

// space returns the slot of column i, building it with the given
// scratch arena on a miss (nil falls back to the shared pool) and
// counting the hit or miss into tr. Stored spaces own their Labels —
// they are handed to concurrent scoring goroutines and outlive every
// scratch — so nothing scratch-backed is ever stored.
func (e *Evaluator) space(i int, sc *scratch, tr *obs.Trace) slot {
	e.mu.RLock()
	s := e.slots[i]
	e.mu.RUnlock()
	if s.built {
		tr.Count(obs.CounterSpacesReused, 1)
		return s
	}
	if sc == nil {
		sc = getScratch()
		defer putScratch(sc)
	}
	// Build outside the lock: construction is the expensive part and is
	// deterministic, so concurrent builders produce identical spaces and
	// the first writer wins.
	if col := e.ds.ColumnAt(i); col.Attr.Type == metrics.Numeric {
		ps, _, _ := e.partitionNumeric(i, col, sc, nil)
		s = numericSlot(ps)
	} else {
		s = slot{cat: newCategoricalSpaceIDs(col.Attr.Name, col, e.aRuns, e.nRuns, sc), built: true}
	}
	return e.store(i, s, tr)
}

// store installs s as column i's slot unless a racing build stored one
// first, and returns the slot that stays there. tr counts the outcome.
func (e *Evaluator) store(i int, s slot, tr *obs.Trace) slot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if old := e.slots[i]; old.built {
		tr.Count(obs.CounterSpacesReused, 1)
		return old
	}
	tr.Count(obs.CounterSpacesBuilt, 1)
	e.slots[i] = s
	return s
}

// partitionNumeric runs Algorithm 1's first three steps on numeric
// column i: label the partition space from the prepared index and
// filter it unless filtering is disabled, timing both stages into tr
// (nil-safe). It also returns the region means, which fall out of the
// labeling pass and which gap filling and extraction need. A nil space
// means the column yields none.
func (e *Evaluator) partitionNumeric(i int, col metrics.Column, sc *scratch, tr *obs.Trace) (ps *NumericSpace, muA, muN float64) {
	start := tr.Start()
	ps, sumA, sumN, cntA, cntN := newNumericSpacePrepared(col.Attr.Name, col.Num, e.prep.column(i), e.aRuns, e.nRuns, e.p.NumPartitions, sc)
	muA, muN = meanOf(sumA, cntA), meanOf(sumN, cntN)
	tr.EndStage(obs.StagePartition, start)
	if ps == nil {
		return nil, muA, muN
	}
	tr.Count(obs.CounterPartitionsCreated, ps.R)
	if !e.p.DisableFiltering {
		start = tr.Start()
		tr.Count(obs.CounterPartitionsFiltered, ps.filter(sc))
		tr.EndStage(obs.StageFilter, start)
	}
	return ps, muA, muN
}

// NumericSpaceFor returns the cached (filtered) numeric partition space
// of an attribute, or nil when the attribute is missing, categorical,
// added after construction, or yields no space. Exported for tests and
// experiment harnesses.
func (e *Evaluator) NumericSpaceFor(attr string) *NumericSpace {
	i, ok := e.column(attr)
	if !ok || e.ds.ColumnAt(i).Attr.Type != metrics.Numeric {
		return nil
	}
	return e.space(i, nil, nil).num
}
