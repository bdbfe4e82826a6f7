package core

import (
	"math"
	"math/bits"
)

// Columnar kernels for the Algorithm 1 hot path. Each kernel makes one
// contiguous pass per region run over a plain slice — no per-row
// callbacks, no membership re-scans (runs arrive pre-encoded as the
// flat [lo, hi) pairs of metrics.Region.RunList) — and together they
// let generateNumeric label a partition space and compute both region
// means in exactly two passes (one per region) instead of the former
// four.
//
// Equivalence contract (pinned by golden_ref_test.go): every kernel
// visits rows in the same order and applies the same floating-point
// operations as the loop it replaced, so sums, means, and labels are
// bit-for-bit identical to the reference implementation.

// minMaxNaN scans a column once, returning the finite min/max and the
// number of NaN entries. ok is false when the column has no finite
// values. Identical comparison structure to the reference min/max scan
// in refNewNumericSpace (NaN skipped, strict < and >).
func minMaxNaN(values []float64) (min, max float64, nans int, ok bool) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if math.IsNaN(v) {
			nans++
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if math.IsInf(min, 1) {
		return 0, 0, nans, false
	}
	return min, max, nans, true
}

// labelSumKernel is the fused labeling+mean pass of the prepared path:
// for every row of the region it sets the bit of the row's precomputed
// partition id and accumulates the row's value into a running sum, all
// in one contiguous loop per run. NaN rows (bucket id -1) are skipped.
//
// The summation order is run order — the order of the reference region
// mean (refRegionMean in golden_ref_test.go) — and a
// bit set in bits[j>>6] corresponds exactly to hasA[j]/hasN[j] in the
// reference row loop, because bucket[i] was computed with the same
// IndexOf the reference calls per row.
func labelSumKernel(values []float64, bucket []int32, runs []int32, bits []uint64) (sum float64, n int) {
	limit := len(bucket)
	if len(values) < limit {
		limit = len(values)
	}
	for k := 0; k+1 < len(runs); k += 2 {
		lo, hi := int(runs[k]), int(runs[k+1])
		if hi > limit {
			hi = limit
		}
		for i := lo; i < hi; i++ {
			j := bucket[i]
			if j < 0 {
				continue
			}
			bits[uint32(j)>>6] |= 1 << (uint32(j) & 63)
			sum += values[i]
			n++
		}
	}
	return sum, n
}

// labelsFromBits converts the two membership bitsets into partition
// labels: Abnormal where only hasA is set, Normal where only hasN is
// set, Empty elsewhere. labels must be zeroed (Empty) on entry; words
// with no occupied partitions are skipped wholesale, which is the win
// over the per-partition switch for the typical sparse space.
func labelsFromBits(hasA, hasN []uint64, labels []Label) {
	for w := range hasA {
		occ := hasA[w] | hasN[w]
		for occ != 0 {
			b := bits.TrailingZeros64(occ)
			occ &= occ - 1
			j := w<<6 + b
			if j >= len(labels) {
				return
			}
			a := hasA[w]>>uint(b)&1 != 0
			n := hasN[w]>>uint(b)&1 != 0
			switch {
			case a && !n:
				labels[j] = Abnormal
			case n && !a:
				labels[j] = Normal
			}
		}
	}
}

// countIDsKernel tallies per-id occurrences of a dictionary-encoded
// categorical column over one region, one contiguous pass per run.
func countIDsKernel(ids []int32, runs []int32, counts []int32) {
	limit := len(ids)
	for k := 0; k+1 < len(runs); k += 2 {
		lo, hi := int(runs[k]), int(runs[k+1])
		if hi > limit {
			hi = limit
		}
		for i := lo; i < hi; i++ {
			counts[ids[i]]++
		}
	}
}
