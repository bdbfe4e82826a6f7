package core

import "sync"

// scratch is a per-worker arena of reusable buffers for the Algorithm 1
// hot path. One diagnosis builds a partition space per attribute
// (~116 on the paper's testbed), and each build needs several short-lived
// slices and maps (membership flags, label snapshots, nearest-neighbour
// indices, category counters). Allocating them fresh per attribute is
// pure GC pressure, so NewEvaluator hands each worker slot one scratch
// for the whole fan-out, Evaluator.Generate takes one for its pass over
// the attributes, and the exported
// constructors (NewNumericSpace, Filter, FillGaps, NewCategoricalSpace)
// fall back to a sync.Pool so direct callers keep the same
// zero-boilerplate API.
//
// Ownership rules (see DESIGN.md §10):
//   - A scratch is owned by exactly one goroutine between get and put;
//     ForEachWorker's slot ids make that trivially true for the pools.
//   - Buffers handed out by scratch methods are valid only until the
//     next call on the same scratch. Nothing that outlives the current
//     attribute may alias them.
//   - Everything that escapes a construction — the partition space
//     itself, its Labels, a CategoricalSpace's Values — is allocated
//     owned, never scratch-backed. Evaluator slots in particular must
//     own their labels: they are shared across concurrent scoring
//     goroutines and outlive every scratch. Generate gap-fills a
//     scratch copy (labelCopy) of each built space through a stack view
//     that never escapes.
type scratch struct {
	bitsA, bitsN []uint64 // NewNumericSpace: per-partition region membership bitsets
	nonEmpty     []int    // Filter/FillGaps: indices of non-Empty partitions
	nonEmptyL    []Label  // Filter: their labels, snapshot before rewriting
	gapLabels    []Label  // Evaluator.Generate: copy of a built space's labels to gap-fill

	countA map[string]int  // NewCategoricalSpace: abnormal tuples per value
	countN map[string]int  // NewCategoricalSpace: normal tuples per value
	seen   map[string]bool // NewCategoricalSpace: first-occurrence filter
	order  []string        // NewCategoricalSpace: distinct values

	idCountA []int32 // dictionary-encoded categorical: abnormal tuples per id
	idCountN []int32 // dictionary-encoded categorical: normal tuples per id
	present  []int32 // dictionary-encoded categorical: ids seen in either region
}

// catDistinctHint pre-sizes the categorical counting maps. Categorical
// attributes in per-second DBMS telemetry (status flags, lock modes,
// active-query names) have a handful of distinct values, so a small
// fixed hint avoids rehashing without wasting memory; the maps keep any
// larger size they grow to for the lifetime of the scratch.
const catDistinctHint = 8

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// workerScratches takes one arena per worker slot of a fan-out over n
// items, so a slot reuses its buffers across every attribute it
// processes. Return them with putScratches.
func workerScratches(n, workers int) []*scratch {
	out := make([]*scratch, EffectiveWorkers(n, workers))
	for i := range out {
		out[i] = getScratch()
	}
	return out
}

func putScratches(s []*scratch) {
	for _, sc := range s {
		putScratch(sc)
	}
}

// bitPair returns two zeroed bitsets covering n partitions (one bit per
// partition, 64 per word), reusing capacity. Bitsets replace the former
// []bool masks: clearing R/64 words is cheaper than R bytes, and the
// label conversion skips unoccupied words wholesale (labelsFromBits).
func (s *scratch) bitPair(n int) (a, b []uint64) {
	words := (n + 63) >> 6
	if cap(s.bitsA) < words {
		s.bitsA = make([]uint64, words)
		s.bitsN = make([]uint64, words)
	}
	a, b = s.bitsA[:words], s.bitsN[:words]
	clear(a)
	clear(b)
	return a, b
}

// idCounts returns two zeroed per-id counters sized to a categorical
// column's dictionary, reusing capacity.
func (s *scratch) idCounts(n int) (a, b []int32) {
	if cap(s.idCountA) < n {
		s.idCountA = make([]int32, n)
		s.idCountN = make([]int32, n)
	}
	a, b = s.idCountA[:n], s.idCountN[:n]
	clear(a)
	clear(b)
	return a, b
}

// presentIDs returns an empty id slice with at least n capacity for
// collecting the ids occurring in either region.
func (s *scratch) presentIDs(n int) []int32 {
	if cap(s.present) < n {
		s.present = make([]int32, 0, n)
	}
	return s.present[:0]
}

// catState returns cleared counting maps and an empty order slice for a
// categorical build. The order slice must be stored back via keepOrder
// so grown capacity survives to the next attribute.
func (s *scratch) catState() (countA, countN map[string]int, seen map[string]bool, order []string) {
	if s.countA == nil {
		s.countA = make(map[string]int, catDistinctHint)
		s.countN = make(map[string]int, catDistinctHint)
		s.seen = make(map[string]bool, catDistinctHint)
	} else {
		clear(s.countA)
		clear(s.countN)
		clear(s.seen)
	}
	return s.countA, s.countN, s.seen, s.order[:0]
}

// keepOrder stores the (possibly grown) order slice back into the arena.
func (s *scratch) keepOrder(order []string) { s.order = order[:0] }

// labelCopy copies a built space's labels into reused capacity, for
// Algorithm 1 to gap-fill and extract from without touching the
// evaluator's copy.
func (s *scratch) labelCopy(labels []Label) []Label {
	s.gapLabels = append(s.gapLabels[:0], labels...)
	return s.gapLabels
}
