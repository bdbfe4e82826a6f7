package core

import (
	"context"
	"encoding/binary"
	"errors"
	"math/bits"
	"unsafe"

	"dbsherlock/internal/metrics"
	"dbsherlock/internal/obs"
)

// Evaluator is one (dataset, abnormal, normal) diagnosis context with
// the labeled-and-filtered partition space of every attribute, built
// once at construction. Algorithm 1 (Generate) gap-fills and extracts
// from those spaces, and confidence computation (Equation 3) scores
// every causal model's predicates against them, which turns an
// O(models x predicates x rows) recomputation into one partition build
// per attribute.
//
// An Evaluator never changes after NewEvaluator returns, so it is safe
// for unsynchronized concurrent use. It never carries a trace — one may
// outlive the request that built it and serve many others — so callers
// hand their trace to NewEvaluator and Generate instead. It is bound to
// the dataset state it was built over: a column added afterwards falls
// outside the slots and yields no space.
type Evaluator struct {
	ds           *metrics.Dataset
	abnormal     *metrics.Region
	normal       *metrics.Region
	aRuns, nRuns []int32 // the regions' run lists (Region.RunList)
	cntA, cntN   int     // the regions' row counts
	p            Params
	slots        []slot // by column index, one per column at construction
}

// slot is one column's space: num for a numeric column, cat for a
// categorical one, both nil when the column yields no space (constant
// or all-NaN, or no row in either region).
type slot struct {
	num      *NumericSpace
	cat      *CategoricalSpace
	nA, nN   int32   // num's Abnormal / Normal partitions, counted once
	muA, muN float64 // a numeric column's region means, for gap filling and the θ check
}

// NewEvaluator validates a diagnosis context and builds every column's
// partition space in one fan-out across p.Workers workers: a numeric
// column is labeled from the dataset's prepared columnar index (built
// here on first use; see prepared.go) and filtered unless filtering is
// disabled, and a categorical column is labeled from its dictionary
// ids. tr (nil-safe) times the partition and filter stages and counts
// every column as spaces_built. The fan-out checks ctx between columns
// and returns ctx.Err() once it fires.
func NewEvaluator(ctx context.Context, ds *metrics.Dataset, abnormal, normal *metrics.Region, p Params, tr *obs.Trace) (*Evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if ds == nil || ds.Rows() == 0 {
		return nil, errors.New("core: empty dataset")
	}
	if abnormal == nil || abnormal.Empty() {
		return nil, errors.New("core: abnormal region is empty")
	}
	if normal == nil || normal.Empty() {
		return nil, errors.New("core: normal region is empty")
	}
	if abnormal.Intersects(normal) {
		return nil, errors.New("core: abnormal and normal regions overlap")
	}
	e := &Evaluator{ds: ds, abnormal: abnormal, normal: normal,
		aRuns: abnormal.RunList(), nRuns: normal.RunList(), cntA: abnormal.Count(), cntN: normal.Count(),
		p: p, slots: make([]slot, ds.NumAttrs())}
	prep := PreparedFor(ds, p.NumPartitions)
	n, workers := len(e.slots), ResolveWorkers(p.Workers)
	scratches := workerScratches(n, workers)
	defer putScratches(scratches)
	err := ForEachWorkerCtx(ctx, n, workers, func(w, i int) {
		col, s, sc := ds.ColumnAt(i), &e.slots[i], scratches[w]
		start := tr.Start()
		if col.Attr.Type == metrics.Categorical {
			s.cat = newCategoricalSpaceIDs(col.Attr.Name, col, e.aRuns, e.nRuns, sc)
			tr.EndStage(obs.StagePartition, start)
			if s.cat != nil {
				tr.Count(obs.CounterPartitionsCreated, len(s.cat.Labels))
			}
			return
		}
		ps, sumA, sumN, cntA, cntN := newNumericSpacePrepared(col.Attr.Name, col.Num, prep.column(i), e.aRuns, e.nRuns, p.NumPartitions, sc)
		s.num, s.muA, s.muN = ps, meanOf(sumA, cntA), meanOf(sumN, cntN)
		tr.EndStage(obs.StagePartition, start)
		if ps == nil {
			return
		}
		tr.Count(obs.CounterPartitionsCreated, ps.R)
		if !p.DisableFiltering {
			start = tr.Start()
			tr.Count(obs.CounterPartitionsFiltered, ps.filter(sc))
			tr.EndStage(obs.StageFilter, start)
		}
		for _, l := range ps.Labels {
			switch l {
			case Abnormal:
				s.nA++
			case Normal:
				s.nN++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	tr.Count(obs.CounterSpacesBuilt, n)
	return e, nil
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
// slots, the partition spaces, the region pins and their run lists —
// the memory a cache holding this evaluator keeps alive beyond the
// dataset itself.
// Attribute names and category values are the dataset's strings, so
// only their headers count.
func (e *Evaluator) SizeBytes() int64 {
	const (
		evaluatorBytes = int64(unsafe.Sizeof(Evaluator{}))
		slotBytes      = int64(unsafe.Sizeof(slot{}))
		numSpaceBytes  = int64(unsafe.Sizeof(NumericSpace{}))
		catSpaceBytes  = int64(unsafe.Sizeof(CategoricalSpace{}))
		stringBytes    = int64(unsafe.Sizeof(""))
		labelBytes     = int64(unsafe.Sizeof(Label(0)))
		regionBytes    = int64(unsafe.Sizeof(metrics.Region{}))
		runBytes       = int64(unsafe.Sizeof(int32(0)))
	)
	n := evaluatorBytes + slotBytes*int64(len(e.slots)) +
		2*regionBytes + int64(e.abnormal.Len()+e.normal.Len()) +
		runBytes*int64(cap(e.aRuns)+cap(e.nRuns))
	for _, s := range e.slots {
		if s.num != nil {
			n += numSpaceBytes + labelBytes*int64(cap(s.num.Labels))
		}
		if s.cat != nil {
			n += catSpaceBytes + labelBytes*int64(cap(s.cat.Labels)) +
				stringBytes*int64(cap(s.cat.Values))
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

// Separation computes the partition-space separation of one predicate,
// identically to PartitionSeparation but against the built spaces.
func (e *Evaluator) Separation(pred Predicate) float64 {
	i, ok := e.column(pred.Attr)
	if !ok {
		return 0
	}
	// A slot holds only a space of its column's own type, so the space
	// that is set decides the type match: a mistyped predicate, or one
	// of an invalid type, finds none and scores 0.
	s := &e.slots[i]
	switch {
	case pred.Type == metrics.Numeric && s.num != nil:
		return s.numericSeparation(pred)
	case pred.Type != metrics.Categorical || s.cat == nil:
		return 0
	}

	cs := s.cat
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

// numericSeparation is Separation against the slot's numeric space. The
// reference scan counts a partition when MatchesNumeric(Midpoint(j))
// holds. Midpoints are monotone non-decreasing in j, so the partitions
// above Lower form a suffix and those below Upper a prefix, and the
// matching set is the range [jLo, jHi) between two unique boundaries.
// An infinite span's NaN midpoints keep that shape: they fail both
// tests, and sit at j = 0 before +Inf ones (a finite Min) or at every j.
// Each boundary is found by a short walk from its arithmetic guess
// with the exact strict comparisons MatchesNumeric applies, and the
// range's labels are counted eight at a time: the counts, and therefore
// the ratios, are identical to the scan's.
func (s *slot) numericSeparation(pred Predicate) float64 {
	if !pred.HasLower && !pred.HasUpper {
		return 0 // MatchesNumeric is false everywhere: zero hits on both sides
	}
	ps := s.num
	jLo, jHi := 0, len(ps.Labels)
	if pred.HasLower {
		jLo = ps.firstAbove(pred.Lower)
	}
	if pred.HasUpper {
		jHi = ps.firstNotBelow(pred.Upper, jLo)
	}
	hitA, hitN := countLabels(ps.Labels[jLo:jHi])
	return ratio(hitA, int(s.nA)) - ratio(hitN, int(s.nN))
}

// guess returns a start for a boundary walk over [lo, hi]: partition
// j's midpoint lies near Min + (j+½)·width, so the first midpoint at or
// above x is near ⌊(x−Min)/width + ½⌋, taken here through the cached
// 1/(Max−Min) so that a guess costs no division. A NaN or infinite
// position (a NaN or infinite x or space, or a zero width) clamps before
// the int conversion, and a space without the inverse (a literal one,
// or an infinite span) starts at lo; the walk is correct from any start.
func (ps *NumericSpace) guess(x float64, lo, hi int) int {
	f := (x-ps.Min)*ps.invSpan*float64(ps.R) + 0.5
	switch {
	case f >= float64(hi):
		return hi
	case f > float64(lo):
		return int(f)
	}
	return lo
}

// firstAbove returns the first partition whose midpoint is > x, or
// len(Labels) when none is. From the guess it steps up while partition
// j fails and down while j−1 passes, which ends on the one boundary
// whatever the start.
func (ps *NumericSpace) firstAbove(x float64) int {
	r := len(ps.Labels)
	j := ps.guess(x, 0, r)
	for j < r && !(ps.Midpoint(j) > x) {
		j++
	}
	for j > 0 && ps.Midpoint(j-1) > x {
		j--
	}
	return j
}

// firstNotBelow returns the first partition at or after lo whose
// midpoint is not < x, or len(Labels) when every one is: the end of
// the range below an upper bound, walked like firstAbove.
func (ps *NumericSpace) firstNotBelow(x float64, lo int) int {
	r := len(ps.Labels)
	j := ps.guess(x, lo, r)
	for j < r && ps.Midpoint(j) < x {
		j++
	}
	for j > lo && !(ps.Midpoint(j-1) < x) {
		j--
	}
	return j
}

// Byte masks selecting a Label's value in each byte of a 64-bit word:
// Normal and Abnormal are distinct single bits and Empty is zero, so a
// masked word's popcount counts one label.
const (
	normalBytes   = 0x0101010101010101 * uint64(Normal)
	abnormalBytes = 0x0101010101010101 * uint64(Abnormal)
)

// countLabels counts the Abnormal and the Normal labels in labels,
// reading them eight at a time as 64-bit words and the tail one by one.
func countLabels(labels []Label) (nA, nN int) {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(labels))), len(labels))
	for len(b) >= 8 {
		w := binary.LittleEndian.Uint64(b)
		nA += bits.OnesCount64(w & abnormalBytes)
		nN += bits.OnesCount64(w & normalBytes)
		b = b[8:]
	}
	for _, l := range b {
		switch Label(l) {
		case Abnormal:
			nA++
		case Normal:
			nN++
		}
	}
	return nA, nN
}

// NumericSpaceFor returns the built (filtered) numeric partition space
// of an attribute, or nil when the attribute is missing, categorical,
// added after construction, or yields no space. Exported for tests and
// experiment harnesses.
func (e *Evaluator) NumericSpaceFor(attr string) *NumericSpace {
	if i, ok := e.column(attr); ok {
		return e.slots[i].num
	}
	return nil
}
