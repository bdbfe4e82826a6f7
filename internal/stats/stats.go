// Package stats provides the numeric building blocks used across
// DBSherlock: summary statistics, robust statistics (medians, MAD),
// quantiles, normalization, histograms, and information-theoretic
// measures (entropy, mutual information) for the domain-knowledge
// independence test of paper Section 5.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, ignoring NaNs. It returns NaN
// for an empty (or all-NaN) input.
func Mean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		sum += x
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Variance returns the population variance of xs, ignoring NaNs.
func Variance(xs []float64) float64 {
	m := Mean(xs)
	if math.IsNaN(m) {
		return math.NaN()
	}
	var sum float64
	var n int
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		d := x - m
		sum += d * d
		n++
	}
	return sum / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median of xs, ignoring NaNs. It returns NaN for an
// empty input. The input is not modified.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics, ignoring NaNs. It returns NaN
// for an empty input. The input is not modified.
func Quantile(xs []float64, q float64) float64 {
	clean := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			clean = append(clean, x)
		}
	}
	if len(clean) == 0 {
		return math.NaN()
	}
	sort.Float64s(clean)
	if q <= 0 {
		return clean[0]
	}
	if q >= 1 {
		return clean[len(clean)-1]
	}
	pos := q * float64(len(clean)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return clean[lo]
	}
	frac := pos - float64(lo)
	return clean[lo]*(1-frac) + clean[hi]*frac
}

// MAD returns the median absolute deviation of xs (a robust spread
// estimate used by the PerfAugur baseline).
func MAD(xs []float64) float64 {
	m := Median(xs)
	if math.IsNaN(m) {
		return math.NaN()
	}
	dev := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			dev = append(dev, math.Abs(x-m))
		}
	}
	return Median(dev)
}

// MinMax returns the minimum and maximum of xs, ignoring NaNs. ok is
// false if there are no finite values.
func MinMax(xs []float64) (min, max float64, ok bool) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
		ok = true
	}
	if !ok {
		return 0, 0, false
	}
	return min, max, true
}

// Normalize maps xs into [0, 1] by subtracting the minimum and dividing
// by the range, as in Equation (2) of the paper. If the range is zero
// (a constant attribute) every value maps to 0. NaNs are preserved.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	min, max, ok := MinMax(xs)
	span := max - min
	for i, x := range xs {
		switch {
		case math.IsNaN(x):
			out[i] = math.NaN()
		case !ok || span == 0:
			out[i] = 0
		default:
			out[i] = (x - min) / span
		}
	}
	return out
}

// SlidingWindowMedians returns the median of every length-tau window of
// xs. Window w starts at index w and covers xs[w : w+tau]. If tau exceeds
// len(xs) a single whole-slice window is used. Used by the potential-power
// computation of paper Section 7 (Equation 4).
//
// A single sorted scratch buffer is maintained incrementally across
// windows — the outgoing value is removed and the incoming one inserted
// by binary search — so the whole sweep costs one allocation and
// O(n·tau) moves instead of re-allocating and re-sorting a fresh window
// copy per position (O(n·tau log tau) with n allocations).
func SlidingWindowMedians(xs []float64, tau int) []float64 {
	if len(xs) == 0 {
		return nil
	}
	if tau <= 0 {
		tau = 1
	}
	if tau > len(xs) {
		tau = len(xs)
	}
	out := make([]float64, 0, len(xs)-tau+1)
	// win holds the non-NaN values of the current window, sorted.
	win := make([]float64, 0, tau)
	for _, x := range xs[:tau] {
		if !math.IsNaN(x) {
			win = insertSorted(win, x)
		}
	}
	out = append(out, medianSorted(win))
	for w := 1; w+tau <= len(xs); w++ {
		if x := xs[w-1]; !math.IsNaN(x) {
			win = removeSorted(win, x)
		}
		if x := xs[w+tau-1]; !math.IsNaN(x) {
			win = insertSorted(win, x)
		}
		out = append(out, medianSorted(win))
	}
	return out
}

// insertSorted inserts x into sorted s, keeping it sorted.
func insertSorted(s []float64, x float64) []float64 {
	i := sort.SearchFloat64s(s, x)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// removeSorted removes one occurrence of x from sorted s. x must be
// present: callers remove only values they previously inserted.
func removeSorted(s []float64, x float64) []float64 {
	i := sort.SearchFloat64s(s, x)
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

// medianSorted returns the median of an already-sorted slice with the
// same interpolation (and NaN-for-empty behaviour) as Quantile(s, 0.5).
func medianSorted(s []float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := 0.5 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}
