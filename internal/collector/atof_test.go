package collector

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkFastParse is the fast path's contract: for any string it either
// declines, or returns the bits strconv.ParseFloat(s, 64) returns and
// strconv accepts s too.
func checkFastParse(t *testing.T, s string) bool {
	t.Helper()
	got, ok := parseFloatFast(s)
	if !ok {
		return false
	}
	want, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("fast path read %q as %v, strconv rejects it: %v", s, got, err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("fast path read %q as %v (%#016x), strconv as %v (%#016x)",
			s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return true
}

// FuzzParseFloat is the differential check of the fast path against
// strconv. The seeds cover the edges of its domain: signed zero, the
// smallest subnormal, the float64 extremes, integers around 2^53, the
// last exact power of ten and its successor, bare fractions, malformed
// exponents, underscores, hex, Inf spellings, a 20-digit mantissa and
// a 5-digit exponent.
func FuzzParseFloat(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "+0", "0.0", "-0e5",
		"5e-324", "4.9406564584124654e-324", "2.2250738585072014e-308",
		"1.7976931348623157e308", "-1.7976931348623157e+308", "1.7976931348623159e308",
		"9007199254740992", "9007199254740993", "9007199254740994",
		"1e22", "1e23", "4503599627370496e22",
		".5", "5.", "+.5", "-.5e1", ".", "+", "-",
		"1e", "1e+", "1e-", "1E5", "1e0005", "1e99999", "1e-99999",
		"1_0", "1.0_0", "0x1p3", "0X1P-3",
		"inf", "-Inf", "+infinity", "NaN", "nan",
		"12345678901234567890", "1234567890123456789", "0.00012345678901234567891",
		"1.0000000000000000000", "100000000000000000000", "439.9432636767326",
		"1.4371707598286602e+06", " 1", "1 ", "1..2", "--1", "1e2e3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkFastParse(t, s)
	})
}

// TestParseFloatMatchesStrconv sweeps random float64 bit patterns and
// random decimals through the formats WriteCSV and agents produce, and
// checks that the fast path takes nearly all of them with strconv's bits.
func TestParseFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	taken, total := 0, 0
	check := func(s string) {
		total++
		if checkFastParse(t, s) {
			taken++
		}
	}
	for i := 0; i < 50000; i++ {
		x := math.Float64frombits(rng.Uint64())
		check(strconv.FormatFloat(x, 'g', -1, 64))
		check(strconv.FormatFloat(x, 'e', rng.Intn(20), 64))
		y := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		check(strconv.FormatFloat(y, 'f', rng.Intn(18), 64))
		check(strconv.FormatFloat(y, 'g', -1, 64))
		var b strings.Builder
		for n := 1 + rng.Intn(24); n > 0; n-- {
			b.WriteByte("0123456789.eE+-"[rng.Intn(10+5*rng.Intn(2))])
		}
		check(b.String())
	}
	if taken < total*3/4 {
		t.Fatalf("fast path took %d of %d inputs, want at least three quarters", taken, total)
	}
}

// TestPowersOfTenTable pins rows of the generated table to the literal
// rows Go's strconv/eisel_lemire.go carries, at both ends, around 10^0
// and at the 10^43 example its doc comment works through.
func TestPowersOfTenTable(t *testing.T) {
	if n := len(detailedPowersOfTen); n != 696 {
		t.Fatalf("table has %d rows, want 696", n)
	}
	for _, c := range []struct {
		e      int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x0000000000000000, 0x8000000000000000},
		{1, 0x0000000000000000, 0xA000000000000000},
		{22, 0x0000000000000000, 0x878678326EAC9000},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := detailedPowersOfTen[c.e-detailedPowersOfTenMinExp10]; got != [2]uint64{c.lo, c.hi} {
			t.Errorf("1e%d row = {%#016x, %#016x}, want {%#016x, %#016x}", c.e, got[0], got[1], c.lo, c.hi)
		}
	}
	for i, row := range detailedPowersOfTen {
		if row[1]>>63 != 1 {
			t.Fatalf("1e%d row is not normalized: %#016x", i+detailedPowersOfTenMinExp10, row[1])
		}
	}
}
