package core

import (
	"context"
	"sync"

	"dbsherlock/internal/metrics"
	"dbsherlock/internal/obs"
)

// Evaluator scores predicates against one (dataset, abnormal, normal)
// diagnosis context, caching the labeled-and-filtered partition space of
// each attribute. Confidence computation (Equation 3) scores every
// causal model's predicates against the same context, so the cache turns
// an O(models x predicates x rows) recomputation into one partition
// build per attribute.
//
// An Evaluator is safe for concurrent use: the space cache is guarded by
// an RWMutex, and because space construction is deterministic, losers of
// a racing build converge on the same labels. Callers that score many
// models should PrepareCtx the needed attributes first so the scoring
// phase runs against a read-mostly cache.
//
// An Evaluator never carries a trace — one may outlive the request that
// built it and serve many others — so callers hand their trace to
// PrepareCtx instead. It is bound to the dataset state it was built
// over: spaces come from that state's prepared index, and a column added
// afterwards yields no space.
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

	mu  sync.RWMutex
	num map[string]numEntry
	cat map[string]*CategoricalSpace
}

// numEntry is one cached numeric space plus its label totals, computed
// once at insert so Separation never re-scans the full space for them.
// Stored by value: caching costs no allocation beyond the map itself,
// which keeps the cold diagnosis path on its allocation floor.
type numEntry struct {
	ps     *NumericSpace
	nA, nN int32 // Abnormal / Normal partition counts after filtering
}

func buildNumEntry(ps *NumericSpace) numEntry {
	ent := numEntry{ps: ps}
	if ps == nil {
		return ent
	}
	for _, l := range ps.Labels {
		switch l {
		case Abnormal:
			ent.nA++
		case Normal:
			ent.nN++
		}
	}
	return ent
}

// NewEvaluator prepares an evaluation context. Spaces are built lazily,
// against the dataset's prepared columnar index (built here on first use;
// see prepared.go). p.Trace is dropped: see PrepareCtx.
func NewEvaluator(ds *metrics.Dataset, abnormal, normal *metrics.Region, p Params) *Evaluator {
	p.Trace = nil
	e := &Evaluator{
		ds: ds, abnormal: abnormal, normal: normal, p: p,
		prep: PreparedFor(ds, p.NumPartitions),
		num:  make(map[string]numEntry),
		cat:  make(map[string]*CategoricalSpace),
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

// SizeBytes estimates the retained heap footprint of the evaluator's
// cached partition spaces plus its region pins — the memory a cache
// holding this evaluator keeps alive beyond the dataset itself (the
// dataset is owned by the store and not counted). The estimate walks
// the space maps under the read lock, so it is safe to call while the
// evaluator is in concurrent use and reflects lazily added spaces.
func (e *Evaluator) SizeBytes() int64 {
	const (
		numSpaceOverhead = 96 // struct, map entry, key header
		catSpaceOverhead = 96
		stringOverhead   = 16
		regionOverhead   = 32
	)
	var n int64
	e.mu.RLock()
	for attr, ent := range e.num {
		n += numSpaceOverhead + int64(len(attr))
		if ent.ps != nil {
			n += int64(len(ent.ps.Attr)) + int64(len(ent.ps.Labels))
		}
	}
	for attr, cs := range e.cat {
		n += catSpaceOverhead + int64(len(attr))
		if cs != nil {
			n += int64(len(cs.Attr)) + int64(len(cs.Labels))
			for _, v := range cs.Values {
				n += stringOverhead + int64(len(v))
			}
		}
	}
	e.mu.RUnlock()
	for _, r := range []*metrics.Region{e.abnormal, e.normal} {
		if r != nil {
			n += regionOverhead + int64(r.Len())
		}
	}
	return n
}

// PrepareCtx builds the partition spaces of the named attributes up
// front, fanning the per-attribute construction out across the worker
// pool. Duplicate and unknown names are fine (built once / skipped), so
// callers can pass the raw attribute list of a model set. tr (nil-safe)
// counts each known name whose space this call built as spaces_built and
// every other known name as spaces_reused.
//
// Construction is abandoned between attributes once ctx fires and
// ctx.Err() is returned. The cache stays consistent either way — every
// space that finished building remains valid and reusable.
func (e *Evaluator) PrepareCtx(ctx context.Context, attrs []string, workers int, tr *obs.Trace) error {
	// Deduplicate by column index: a flag per column costs far less than
	// a set of names, and unknown names drop out on the way.
	seen := make([]bool, e.ds.NumAttrs())
	todo := make([]int, 0, len(seen))
	dups := 0
	for _, a := range attrs {
		i, ok := e.ds.ColumnIndex(a)
		switch {
		case !ok:
		case seen[i]:
			dups++
		default:
			seen[i] = true
			todo = append(todo, i)
		}
	}
	tr.Count(obs.CounterSpacesReused, dups)
	resolved := ResolveWorkers(workers)
	scratches := make([]*scratch, EffectiveWorkers(len(todo), resolved))
	for i := range scratches {
		scratches[i] = getScratch()
	}
	err := ForEachWorkerCtx(ctx, len(todo), resolved, func(w, k int) {
		if i := todo[k]; e.ds.ColumnAt(i).Attr.Type == metrics.Numeric {
			e.numericSpace(i, scratches[w], tr)
		} else {
			e.categoricalSpace(i, scratches[w], tr)
		}
	})
	for _, sc := range scratches {
		putScratch(sc)
	}
	return err
}

// Separation computes the partition-space separation of one predicate,
// identically to PartitionSeparation but with cached spaces.
func (e *Evaluator) Separation(pred Predicate) float64 {
	i, ok := e.ds.ColumnIndex(pred.Attr)
	if !ok || e.ds.ColumnAt(i).Attr.Type != pred.Type {
		return 0
	}
	if pred.Type == metrics.Numeric {
		ent := e.numericSpace(i, nil, nil)
		ps := ent.ps
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
		nA, nN := int(ent.nA), int(ent.nN)
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

	cs := e.categoricalSpace(i, nil, nil)
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

// numericSpace returns the cached entry of column i, building it with
// the given scratch arena on a miss (nil falls back to the shared pool)
// and counting the hit or miss into tr. Cache entries own their Labels —
// they are handed to concurrent scoring goroutines and outlive every
// scratch — so nothing scratch-backed is ever stored. A constant/all-NaN
// attribute yields an entry with a nil ps.
func (e *Evaluator) numericSpace(i int, sc *scratch, tr *obs.Trace) numEntry {
	col := e.ds.ColumnAt(i)
	attr := col.Attr.Name
	e.mu.RLock()
	ent, ok := e.num[attr]
	e.mu.RUnlock()
	if ok {
		tr.Count(obs.CounterSpacesReused, 1)
		return ent
	}
	if sc == nil {
		sc = getScratch()
		defer putScratch(sc)
	}
	// Build outside the lock: construction is the expensive part and is
	// deterministic, so concurrent builders produce identical spaces and
	// the first writer wins.
	built, _, _, _, _ := newNumericSpacePrepared(attr, col.Num, e.prep.column(i), e.aRuns, e.nRuns, e.p.NumPartitions, sc)
	if built != nil && !e.p.DisableFiltering {
		built.filter(sc)
	}
	entry := buildNumEntry(built)
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent, ok := e.num[attr]; ok {
		tr.Count(obs.CounterSpacesReused, 1)
		return ent
	}
	tr.Count(obs.CounterSpacesBuilt, 1)
	e.num[attr] = entry
	return entry
}

// NumericSpaceFor returns the cached (filtered) numeric partition space
// of an attribute, or nil when the attribute is missing, categorical,
// or yields no space. Exported for tests and experiment harnesses.
func (e *Evaluator) NumericSpaceFor(attr string) *NumericSpace {
	i, ok := e.ds.ColumnIndex(attr)
	if !ok || e.ds.ColumnAt(i).Attr.Type != metrics.Numeric {
		return nil
	}
	return e.numericSpace(i, nil, nil).ps
}

// categoricalSpace is numericSpace for a dictionary-encoded categorical
// column.
func (e *Evaluator) categoricalSpace(i int, sc *scratch, tr *obs.Trace) *CategoricalSpace {
	col := e.ds.ColumnAt(i)
	attr := col.Attr.Name
	e.mu.RLock()
	cs, ok := e.cat[attr]
	e.mu.RUnlock()
	if ok {
		tr.Count(obs.CounterSpacesReused, 1)
		return cs
	}
	if sc == nil {
		sc = getScratch()
		defer putScratch(sc)
	}
	built := newCategoricalSpaceIDs(attr, col, e.aRuns, e.nRuns, sc)
	e.mu.Lock()
	defer e.mu.Unlock()
	if cs, ok := e.cat[attr]; ok {
		tr.Count(obs.CounterSpacesReused, 1)
		return cs
	}
	tr.Count(obs.CounterSpacesBuilt, 1)
	e.cat[attr] = built
	return built
}
