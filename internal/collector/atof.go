package collector

// The conversion half of this file follows Go's strconv package:
// exactFloat64 is atof64exact from strconv/atof.go and eiselLemire64
// is the function of that name from strconv/eisel_lemire.go, both
// Copyright The Go Authors and used under the BSD-style licence of the
// Go distribution. See https://nigeltao.github.io/blog/2020/eisel-lemire.html
// for the algorithm and the section names its comments cite.

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// parseFloat is strconv.ParseFloat(s, 64), value for value and error
// for error, with a fast path for the plain decimals that WriteCSV and
// metric agents emit. parseFloatFast decodes what it can; every input
// it declines goes to strconv, which therefore still decides every
// error, every ErrRange and every spelling the fast path does not read.
func parseFloat(s string) (float64, error) {
	if f, ok := parseFloatFast(s); ok {
		return f, nil
	}
	return strconv.ParseFloat(s, 64)
}

// maxFastDigits is the most significant digits the fast path reads:
// 10^19 < 2^64, so any 19 of them fit a uint64 mantissa exactly.
const maxFastDigits = 19

// parseFloatFast reads s as [+-]digits[.digits][(e|E)[+-]digits] with at
// least one mantissa digit and at most maxFastDigits significant ones
// (leading zeros do not count), then converts mantissa × 10^exp with
// the exact float64 multiply or divide when that is exact, and with
// Eisel–Lemire otherwise. It reports false, and the caller falls back
// to strconv, for anything else: Inf and NaN spellings, hex, digit
// underscores, longer mantissas, and results Eisel–Lemire refuses
// (subnormals, overflow, unresolvable halfway cases). Where it reports
// true, its result has the bits strconv.ParseFloat(s, 64) returns.
func parseFloatFast(s string) (float64, bool) {
	i := 0
	neg := false
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		neg = s[i] == '-'
		i++
	}
	// Every mantissa digit goes into man unchecked: leading zeros add
	// nothing to it, and a mantissa with too many digits to fit is
	// declined below before man is used.
	var man uint64
	start := i
	for ; i < len(s) && s[i]-'0' <= 9; i++ {
		man = man*10 + uint64(s[i]-'0')
	}
	nd, exp := i-start, 0
	if i < len(s) && s[i] == '.' {
		i++
		frac := i
		for ; i < len(s) && s[i]-'0' <= 9; i++ {
			man = man*10 + uint64(s[i]-'0')
		}
		exp = frac - i
		nd -= exp
	}
	if nd == 0 || nd > maxFastDigits && significantDigits(s[start:i]) > maxFastDigits {
		return 0, false
	}
	if i < len(s) && s[i]|0x20 == 'e' {
		i++
		esign := 1
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			if s[i] == '-' {
				esign = -1
			}
			i++
		}
		start, e := i, 0
		for ; i < len(s) && s[i]-'0' <= 9; i++ {
			if e < 10000 { // far outside the table either way; stay clear of overflow
				e = e*10 + int(s[i]-'0')
			}
		}
		if i == start {
			return 0, false
		}
		exp += esign * e
	}
	if i != len(s) {
		return 0, false
	}
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if f, ok := exactFloat64(man, exp, neg); ok {
		return f, true
	}
	return eiselLemire64(man, exp, neg)
}

// significantDigits counts the digits of a mantissa that follow its
// leading zeros.
func significantDigits(m string) int {
	n := 0
	for i := 0; i < len(m); i++ {
		if m[i] != '.' && (n > 0 || m[i] != '0') {
			n++
		}
	}
	return n
}

// float64pow10 holds the powers of ten that float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// exactFloat64 converts man × 10^exp with one float64 multiply or
// divide when both operands are exact, so the single rounding is the
// correct one: man below 2^52, and 10^|exp| at most 10^22 (or, for a
// positive exp up to 37, after moving zeros into a mantissa that stays
// at most 10^15).
func exactFloat64(man uint64, exp int, neg bool) (float64, bool) {
	if man>>52 != 0 {
		return 0, false
	}
	f := float64(man)
	if neg {
		f = -f
	}
	switch {
	case exp == 0:
		return f, true
	case exp > 0 && exp <= 15+22:
		if exp > 22 {
			f *= float64pow10[exp-22]
			exp = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * float64pow10[exp], true
	case exp < 0 && exp >= -22:
		return f / float64pow10[-exp], true
	}
	return 0, false
}

// eiselLemire64 converts man × 10^exp10 (man != 0) with one 64×128-bit
// multiply against the table, reporting false when the product cannot
// decide the rounding or the result is subnormal, infinite or out of
// the table's range.
func eiselLemire64(man uint64, exp10 int, neg bool) (float64, bool) {
	// Exp10 Range.
	if exp10 < detailedPowersOfTenMinExp10 || detailedPowersOfTenMaxExp10 < exp10 {
		return 0, false
	}
	pow := &detailedPowersOfTen[exp10-detailedPowersOfTenMinExp10]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64: zero or underflow is subnormal, 0x7FF or
	// above is Inf/NaN, and both go to strconv.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}

// The first and last powers of ten in detailedPowersOfTen; both bounds
// are inclusive.
const (
	detailedPowersOfTenMinExp10 = -348
	detailedPowersOfTenMaxExp10 = +347
)

// detailedPowersOfTen holds each 10^e, e from -348 to 347, as a 128-bit
// mantissa rounded down, shifted so that its top bit is set: element 1
// is the high 64 bits and element 0 the low 64. The binary exponent is
// implied by the linear expression in eiselLemire64. Go's strconv
// pastes the same 696 rows as a literal; building them from math/big
// takes well under a millisecond at package initialization.
var detailedPowersOfTen = buildPowersOfTen()

func buildPowersOfTen() *[detailedPowersOfTenMaxExp10 - detailedPowersOfTenMinExp10 + 1][2]uint64 {
	var t [detailedPowersOfTenMaxExp10 - detailedPowersOfTenMinExp10 + 1][2]uint64
	var buf [16]byte
	put := func(e int, m *big.Int) {
		m.FillBytes(buf[:])
		t[e-detailedPowersOfTenMinExp10] = [2]uint64{
			binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8]),
		}
	}
	p := big.NewInt(1) // 10^n
	ten := big.NewInt(10)
	m := new(big.Int)
	for n := 0; n <= max(detailedPowersOfTenMaxExp10, -detailedPowersOfTenMinExp10); n++ {
		b := p.BitLen()
		if n <= detailedPowersOfTenMaxExp10 {
			// 10^n to 128 bits: exact below 2^128, truncated above.
			if b > 128 {
				m.Rsh(p, uint(b-128))
			} else {
				m.Lsh(p, uint(128-b))
			}
			put(n, m)
		}
		if n > 0 && -n >= detailedPowersOfTenMinExp10 {
			// 2^(127+b) / 10^n lies strictly between 2^127 and 2^128,
			// since 2^(b-1) < 10^n < 2^b; the quotient rounds down.
			m.Lsh(big.NewInt(1), uint(127+b))
			m.Quo(m, p)
			put(-n, m)
		}
		p.Mul(p, ten)
	}
	return &t
}
