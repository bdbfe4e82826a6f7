package core

import (
	"math"
	"slices"
	"strings"

	"dbsherlock/internal/metrics"
)

// Label marks a partition as Empty, Normal, or Abnormal (paper Step 2).
type Label int8

const (
	// Empty partitions contain no region-pure tuples (or were filtered).
	Empty Label = iota
	// Normal partitions contain only normal-region tuples.
	Normal
	// Abnormal partitions contain only abnormal-region tuples.
	Abnormal
)

// String returns the label name.
func (l Label) String() string {
	switch l {
	case Normal:
		return "Normal"
	case Abnormal:
		return "Abnormal"
	default:
		return "Empty"
	}
}

// NumericSpace is the discretized domain of one numeric attribute: R
// equi-width partitions from Min to Max (paper Section 4.1).
type NumericSpace struct {
	Attr   string
	Min    float64
	Max    float64
	R      int
	Labels []Label

	// invSpan caches 1/(Max-Min) so the per-tuple IndexOf in the
	// labeling loop multiplies instead of divides, as does Separation's
	// boundary guess. Zero (e.g. in a literal-constructed space) falls
	// back to the dividing path, and the guess to the range's start.
	invSpan float64
}

// width returns the partition width.
func (ps *NumericSpace) width() float64 { return (ps.Max - ps.Min) / float64(ps.R) }

// boundaryEps is the fractional distance from a partition boundary under
// which IndexOf abandons the multiply-by-inverse fast path. The fast and
// exact forms agree to within a few ULPs (relative ~2^-50), so any value
// whose scaled position is farther than 1e-6 from an integer truncates
// identically under both; only boundary-adjacent values (common for
// integer-valued counters whose span divides R) pay the division.
const boundaryEps = 1e-6

// IndexOf returns the partition containing value v. Values at the domain
// maximum are clamped into the last partition.
//
// The result is bit-for-bit the truncation of R*(v-Min)/(Max-Min): the
// precomputed inverse only serves values that provably truncate the same
// way, so spaces labeled by the fast path are byte-identical to ones
// labeled by the original dividing form.
func (ps *NumericSpace) IndexOf(v float64) int {
	if ps.Max == ps.Min {
		return 0
	}
	f := float64(ps.R) * (v - ps.Min)
	var j int
	if x := f * ps.invSpan; ps.invSpan != 0 {
		if fl := math.Floor(x); x-fl > boundaryEps && fl+1-x > boundaryEps {
			j = int(x)
		} else {
			j = int(f / (ps.Max - ps.Min))
		}
	} else {
		j = int(f / (ps.Max - ps.Min))
	}
	if j < 0 {
		j = 0
	}
	if j >= ps.R {
		j = ps.R - 1
	}
	return j
}

// Bounds returns the half-open interval [lb, ub) of partition j.
func (ps *NumericSpace) Bounds(j int) (lb, ub float64) {
	w := ps.width()
	return ps.Min + float64(j)*w, ps.Min + float64(j+1)*w
}

// Midpoint returns the centre value of partition j, used when testing
// whether a partition satisfies a predicate (Section 6.1).
func (ps *NumericSpace) Midpoint(j int) float64 {
	lb, ub := ps.Bounds(j)
	return (lb + ub) / 2
}

// NewNumericSpace builds and labels the partition space of a numeric
// attribute from the region-pure tuples: a partition is Abnormal if every
// tuple in it lies in the abnormal region, Normal if every tuple lies in
// the normal region, and Empty otherwise. Tuples outside both regions are
// ignored; NaNs are skipped. Returns nil for constant or all-NaN
// attributes (invariants cannot explain an anomaly, Section 2.4).
func NewNumericSpace(attr string, values []float64, abnormal, normal *metrics.Region, r int) *NumericSpace {
	sc := getScratch()
	defer putScratch(sc)
	return newNumericSpace(attr, values, abnormal, normal, r, sc)
}

// newNumericSpace is NewNumericSpace against a caller-owned scratch
// arena: the unprepared per-row scan, which the prepared kernels are
// tested against. The returned space owns its Labels.
func newNumericSpace(attr string, values []float64, abnormal, normal *metrics.Region, r int, sc *scratch) *NumericSpace {
	min, max, _, ok := minMaxNaN(values)
	if !ok || min >= max {
		return nil
	}
	ps := &NumericSpace{
		Attr: attr, Min: min, Max: max, R: r,
		Labels:  make([]Label, r),
		invSpan: 1 / (max - min),
	}
	hasA, hasN := sc.bitPair(r)
	n := len(values)
	mark := func(reg *metrics.Region, bits []uint64) {
		reg.Runs(func(lo, hi int) {
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				v := values[i]
				if math.IsNaN(v) {
					continue
				}
				j := uint32(ps.IndexOf(v))
				bits[j>>6] |= 1 << (j & 63)
			}
		})
	}
	mark(abnormal, hasA)
	mark(normal, hasN)
	labelsFromBits(hasA, hasN, ps.Labels)
	return ps
}

// newNumericSpacePrepared builds the same labeled space from a prepared
// column index: the min/max scan and per-row IndexOf were done once at
// preparation, so labeling is a counting pass over the region rows'
// precomputed bucket ids (regions arrive run-length encoded, see
// Region.RunList). Returns the fused region sums and counts as a
// by-product (the rows visited and the summation order are exactly
// those of a run-order region mean), so generateNumeric gets both means
// for free. The resulting space is bit-identical to newNumericSpace's:
// identical min/max (same scan), identical bucket per row (same
// IndexOf), and a set membership bit is exactly a true hasA/hasN flag.
// A nil pc — a column added after the index was built — yields no
// space, like a constant column.
func newNumericSpacePrepared(attr string, values []float64, pc *PreparedColumn, aRuns, nRuns []int32, r int, sc *scratch) (ps *NumericSpace, sumA, sumN float64, cntA, cntN int) {
	if pc == nil || pc.Constant {
		return nil, 0, 0, 0, 0
	}
	ps = &NumericSpace{
		Attr: attr, Min: pc.Min, Max: pc.Max, R: r,
		Labels:  make([]Label, r),
		invSpan: pc.invSpan,
	}
	hasA, hasN := sc.bitPair(r)
	sumA, cntA = labelSumKernel(values, pc.Bucket, aRuns, hasA)
	sumN, cntN = labelSumKernel(values, pc.Bucket, nRuns, hasN)
	labelsFromBits(hasA, hasN, ps.Labels)
	return ps, sumA, sumN, cntA, cntN
}

// Filter applies the paper's Step 3 to the numeric partition space: an
// interior non-Empty partition keeps its label only if both of its
// non-Empty adjacent partitions (closest on each side) carry the same
// label. All replacements happen simultaneously against the original
// labels, so partitions do not cascade-filter each other; consequently
// the first and last non-Empty partitions — which lack a neighbour on
// one side — are never filtered (the paper notes incremental filtering
// would erode them too, Section 4.3). A space with a single non-Empty
// partition is deemed significant and left untouched. It returns the
// number of partitions whose label it removed.
func (ps *NumericSpace) Filter() int {
	sc := getScratch()
	defer putScratch(sc)
	return ps.filter(sc)
}

// filter is Filter against a caller-owned scratch arena. The non-Empty
// index/label snapshot taken up front is what lets the rewrite happen
// in place: every filtering decision reads the snapshot, never the
// labels being rewritten, preserving the all-at-once semantics.
func (ps *NumericSpace) filter(sc *scratch) int {
	idx, lab := sc.nonEmpty[:0], sc.nonEmptyL[:0]
	for j, l := range ps.Labels {
		if l != Empty {
			idx = append(idx, j)
			lab = append(lab, l)
		}
	}
	sc.nonEmpty, sc.nonEmptyL = idx[:0], lab[:0]
	if len(idx) <= 1 {
		return 0
	}
	removed := 0
	for k := 1; k < len(idx)-1; k++ {
		if lab[k-1] != lab[k] || lab[k+1] != lab[k] {
			ps.Labels[idx[k]] = Empty
			removed++
		}
	}
	return removed
}

// FillGaps applies the paper's Step 4: every Empty partition receives the
// label of its nearest non-Empty neighbour, with the distance to an
// Abnormal neighbour multiplied by delta (delta > 1 yields more specific
// predicates, delta < 1 more general ones). If only Abnormal partitions
// remain, the partition containing normalMean (the attribute's average
// over the normal region) is relabeled Normal first, so the predicate
// direction is determinable.
func (ps *NumericSpace) FillGaps(delta, normalMean float64) {
	sc := getScratch()
	defer putScratch(sc)
	ps.fillGaps(delta, normalMean, sc)
}

// fillGaps is FillGaps against a caller-owned scratch arena. It walks
// the gaps between consecutive non-Empty partitions instead of building
// nearest-neighbour index arrays: within a gap (li, ri) the closest
// non-Empty partitions of every interior j are exactly li and ri, and
// before the first / after the last non-Empty partition only one
// neighbour exists. Writes only touch originally-Empty partitions while
// all reads target originally-non-Empty ones, so the result is
// identical to the all-at-once reference — including the per-j
// delta-scaled distance comparisons, which are reproduced verbatim.
func (ps *NumericSpace) fillGaps(delta, normalMean float64, sc *scratch) {
	idx := sc.nonEmpty[:0]
	hasNormal, hasAbnormal := false, false
	for j, l := range ps.Labels {
		if l != Empty {
			idx = append(idx, j)
			if l == Normal {
				hasNormal = true
			} else {
				hasAbnormal = true
			}
		}
	}
	defer func() { sc.nonEmpty = idx[:0] }()
	if !hasNormal && !hasAbnormal {
		return
	}
	if !hasNormal {
		// Relabeling the normal-mean partition may promote a previously
		// Empty partition (or flip an Abnormal one), so re-collect.
		ps.Labels[ps.IndexOf(normalMean)] = Normal
		idx = idx[:0]
		for j, l := range ps.Labels {
			if l != Empty {
				idx = append(idx, j)
			}
		}
	}

	n := len(ps.Labels)
	first, last := idx[0], idx[len(idx)-1]
	for j := 0; j < first; j++ {
		ps.Labels[j] = ps.Labels[first] // only a right neighbour
	}
	for j := last + 1; j < n; j++ {
		ps.Labels[j] = ps.Labels[last] // only a left neighbour
	}
	for k := 0; k+1 < len(idx); k++ {
		li, ri := idx[k], idx[k+1]
		ll, lr := ps.Labels[li], ps.Labels[ri]
		if ll == lr {
			for j := li + 1; j < ri; j++ {
				ps.Labels[j] = ll
			}
			continue
		}
		for j := li + 1; j < ri; j++ {
			dl := float64(j - li)
			dr := float64(ri - j)
			if ll == Abnormal {
				dl *= delta
			} else {
				dr *= delta
			}
			if dl <= dr {
				ps.Labels[j] = ll
			} else {
				ps.Labels[j] = lr
			}
		}
	}
}

// AbnormalBlock returns the bounds [first, last] of the single contiguous
// block of Abnormal partitions, or ok=false if there is no Abnormal
// partition or more than one block (the paper only extracts predicates
// from a single block, Section 4.5).
func (ps *NumericSpace) AbnormalBlock() (first, last int, ok bool) {
	first, last = -1, -1
	blocks := 0
	inBlock := false
	for j, l := range ps.Labels {
		if l == Abnormal {
			if !inBlock {
				blocks++
				if blocks > 1 {
					return 0, 0, false
				}
				first = j
				inBlock = true
			}
			last = j
		} else {
			inBlock = false
		}
	}
	if first < 0 {
		return 0, 0, false
	}
	return first, last, true
}

// CategoricalSpace is the partition space of a categorical attribute:
// one partition per distinct value (paper Section 4.1). Partition order
// is unimportant.
type CategoricalSpace struct {
	Attr   string
	Values []string // distinct values, sorted
	Labels []Label
}

// NewCategoricalSpace builds and labels a categorical partition space: a
// value's partition is Abnormal if strictly more abnormal-region than
// normal-region tuples carry it, Normal if strictly fewer, Empty on ties
// (paper Section 4.2).
func NewCategoricalSpace(attr string, values []string, abnormal, normal *metrics.Region) *CategoricalSpace {
	sc := getScratch()
	defer putScratch(sc)
	return newCategoricalSpace(attr, values, abnormal, normal, sc)
}

// newCategoricalSpace is NewCategoricalSpace against a caller-owned
// scratch arena: the three counting maps and the distinct-value order
// slice are reused across attributes (cleared, pre-sized for the small
// distinct-value counts typical of telemetry flags). The returned
// space owns Values and Labels — scratch state never escapes.
func newCategoricalSpace(attr string, values []string, abnormal, normal *metrics.Region, sc *scratch) *CategoricalSpace {
	countA, countN, seen, order := sc.catState()
	for i, v := range values {
		inA, inN := abnormal.Contains(i), normal.Contains(i)
		if !inA && !inN {
			continue
		}
		if !seen[v] {
			seen[v] = true
			order = append(order, v)
		}
		if inA {
			countA[v]++
		}
		if inN {
			countN[v]++
		}
	}
	defer sc.keepOrder(order)
	if len(order) == 0 {
		return nil
	}
	slices.Sort(order)
	cs := &CategoricalSpace{
		Attr:   attr,
		Values: append(make([]string, 0, len(order)), order...),
		Labels: make([]Label, len(order)),
	}
	for j, v := range cs.Values {
		switch {
		case countA[v] > countN[v]:
			cs.Labels[j] = Abnormal
		case countA[v] < countN[v]:
			cs.Labels[j] = Normal
		default:
			cs.Labels[j] = Empty
		}
	}
	return cs
}

// newCategoricalSpaceIDs is newCategoricalSpace over the dictionary
// encoding built at Dataset.AddCategorical: per-id counting arrays
// replace the string-keyed maps, and the distinct values come from the
// column dictionary instead of being re-discovered per diagnosis. The
// result is identical to the map path — the values present in either
// region, sorted ascending (dictionary values are distinct, so the sort
// order is unique), with the same strictly-more-abnormal labeling and
// tie-to-Empty semantics.
func newCategoricalSpaceIDs(attr string, col metrics.Column, aRuns, nRuns []int32, sc *scratch) *CategoricalSpace {
	dict := col.CatDict
	countA, countN := sc.idCounts(len(dict))
	countIDsKernel(col.CatIDs, aRuns, countA)
	countIDsKernel(col.CatIDs, nRuns, countN)
	present := sc.presentIDs(len(dict))
	for id := range dict {
		if countA[id] != 0 || countN[id] != 0 {
			present = append(present, int32(id))
		}
	}
	defer func() { sc.present = present[:0] }()
	if len(present) == 0 {
		return nil
	}
	slices.SortFunc(present, func(a, b int32) int {
		return strings.Compare(dict[a], dict[b])
	})
	cs := &CategoricalSpace{
		Attr:   attr,
		Values: make([]string, len(present)),
		Labels: make([]Label, len(present)),
	}
	for j, id := range present {
		cs.Values[j] = dict[id]
		switch {
		case countA[id] > countN[id]:
			cs.Labels[j] = Abnormal
		case countA[id] < countN[id]:
			cs.Labels[j] = Normal
		}
	}
	return cs
}

// AbnormalValues returns the category values labeled Abnormal.
func (cs *CategoricalSpace) AbnormalValues() []string {
	var out []string
	for j, l := range cs.Labels {
		if l == Abnormal {
			out = append(out, cs.Values[j])
		}
	}
	return out
}
