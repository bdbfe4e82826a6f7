package detect

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dbsherlock/internal/metrics"
)

// fuzzValue decodes one fuzz byte into a raw value. Most bytes are
// small multiples of 1/8, with exact ties; the top codes are the values
// the raw-unit state must carry through: ±Inf, values near
// ±MaxFloat64 whose span overflows, ±0, NaN, and a NaN run longer than
// tau.
func fuzzValue(b byte, tau int) []float64 {
	switch b {
	case 255:
		return []float64{math.Inf(1)}
	case 254:
		return []float64{math.Inf(-1)}
	case 253:
		return []float64{math.MaxFloat64}
	case 252:
		return []float64{-math.MaxFloat64}
	case 251:
		return []float64{math.MaxFloat64 / 3}
	case 250:
		return []float64{math.Copysign(0, -1)}
	case 249:
		return []float64{0}
	case 248:
		return []float64{math.NaN()}
	case 247:
		run := make([]float64, tau+2)
		for i := range run {
			run[i] = math.NaN()
		}
		return run
	}
	return []float64{float64(b%64) / 8}
}

// fuzzStreamData builds two numeric columns from the fuzz bytes: the
// decoded values, and the same values in reverse order.
func fuzzStreamData(vals []byte, tau int) *metrics.Dataset {
	var col []float64
	for _, b := range vals {
		col = append(col, fuzzValue(b, tau)...)
	}
	ts := make([]int64, len(col))
	rev := make([]float64, len(col))
	for i := range col {
		ts[i] = int64(i)
		rev[i] = col[len(col)-1-i]
	}
	ds := metrics.MustNewDataset(ts)
	if err := ds.AddNumeric("a", col); err != nil {
		panic(err)
	}
	if err := ds.AddNumeric("b", rev); err != nil {
		panic(err)
	}
	return ds
}

// FuzzStreamPotentialPower drives a Stream with chunks of 1 row up to a
// full window over values that include NaN runs longer than tau, ±Inf,
// spans that overflow and ±0. After every Detect, each attribute's
// potential power must be bitwise the batch reference PotentialPower
// over the window, and the whole result must equal refDetect on it.
// Wired into make fuzz-smoke.
func FuzzStreamPotentialPower(f *testing.F) {
	f.Add([]byte{1, 2, 3, 40, 41, 42, 43, 44, 45, 46, 47, 3, 2, 1, 0, 9, 9, 9}, []byte{1, 3, 30}, uint8(4), uint8(12))
	f.Add([]byte{10, 11, 247, 12, 50, 51, 52, 53, 54, 10, 11, 12, 13, 14}, []byte{2}, uint8(3), uint8(9))
	f.Add([]byte{5, 6, 255, 7, 8, 60, 61, 62, 254, 5, 6, 7, 8, 9, 10}, []byte{1}, uint8(2), uint8(7))
	f.Add([]byte{253, 1, 2, 252, 3, 4, 5, 6, 7, 251, 8, 9, 10, 11}, []byte{4, 1}, uint8(3), uint8(10))
	f.Add([]byte{250, 249, 250, 249, 8, 8, 8, 250, 249, 16, 16, 16, 250, 249}, []byte{1}, uint8(2), uint8(8))
	f.Fuzz(func(t *testing.T, vals, chunks []byte, tauB, capB uint8) {
		p := DefaultParams()
		p.Tau = 1 + int(tauB%24)
		windowCap := 1 + int(capB%80)
		ds := fuzzStreamData(vals, p.Tau)
		if ds.Rows() > 400 {
			return
		}
		s := NewStream(p, windowCap, 1)
		for lo, c := 0, 0; lo < ds.Rows(); c++ {
			size := 1
			if len(chunks) > 0 {
				size += int(chunks[c%len(chunks)]) % windowCap
			}
			hi := min(lo+size, ds.Rows())
			s.Append(windowSlice(ds, lo, hi))
			lo = hi
			got := s.Detect()
			win := windowSlice(ds, max(0, hi-windowCap), hi)
			for k := range s.attrs {
				want := PotentialPower(win.ColumnAt(k).Num, p.Tau)
				if g := s.attrs[k].pp; math.Float64bits(g) != math.Float64bits(want) {
					t.Fatalf("rows [%d,%d) tau=%d cap=%d: %s potential power %v, reference %v",
						max(0, hi-windowCap), hi, p.Tau, windowCap, s.names[k], g, want)
				}
			}
			requireSameResult(t, fmt.Sprintf("rows [%d,%d)", max(0, hi-windowCap), hi), got, refDetect(win, p))
		}
	})
}

// TestSelectRankMatchesSort checks the selection that finds the overall
// median's order statistics against a sort, on slices full of ties and
// both zeros: for every k, v[k] is the k-th smallest value, nothing
// before it is greater and nothing after it is smaller.
func TestSelectRankMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	negZero := math.Copysign(0, -1)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(90)
		src := make([]float64, n)
		for i := range src {
			switch rng.Intn(6) {
			case 0:
				src[i] = negZero
			case 1:
				src[i] = 0
			case 2:
				src[i] = float64(rng.Intn(4))
			default:
				src[i] = rng.NormFloat64() * 1e300
			}
		}
		if trial%10 == 0 {
			slices.Sort(src) // sorted input
		}
		want := slices.Clone(src)
		slices.Sort(want)
		for k := 0; k < n; k++ {
			v := slices.Clone(src)
			selectRank(v, k)
			if v[k] != want[k] {
				t.Fatalf("n=%d k=%d: v[k] = %v, sorted has %v", n, k, v[k], want[k])
			}
			for i, x := range v {
				if i < k && x > v[k] || i > k && x < v[k] {
					t.Fatalf("n=%d k=%d: v[%d] = %v is on the wrong side of %v", n, k, i, x, v[k])
				}
			}
		}
	}
}
