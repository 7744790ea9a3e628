package server

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"strconv"
)

// The float writer. Every float of a reply is spelled here and nowhere
// else: shortestDecimal turns the bits into the shortest decimal that
// reads back as the same float64 (Schubfach, R. Giulietti, "The Schubfach
// way to render doubles": one 128-bit power of ten from pow10Tab, three
// 64 × 128-bit multiplies, no loop and no fallback), and appendFloat lays
// those digits into the reply in encoding/json's spelling. strconv is what
// the tests hold both to, value by value; it is not a second path.
//
// And the float reader's conversion, over the same table: decimalFloat turns
// the digits and decimal exponent wire.go's readNumber carried out of a
// request vector's literal into the float64 strconv.ParseFloat would return.

// maxFloatLen is the longest spelling of a float64, e.g.
// -0.0000012345678901234567.
const maxFloatLen = 25

// digitPairs[2*v:2*v+2] spells v < 100 in two digits.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendFloat spells f as encoding/json does — plain from 1e-6 up to 1e21,
// d.ddde±xx outside it with a one-digit negative exponent left one digit,
// -0 as -0 — and refuses what it refuses.
func appendFloat(b []byte, f float64) ([]byte, error) {
	fbits := math.Float64bits(f)
	frac, exp := fbits&(1<<52-1), int(fbits>>52)&0x7ff
	if exp == 0x7ff {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	at := len(b)
	b = slices.Grow(b, maxFloatLen)
	p := b[at : at+maxFloatLen]
	w := 0 // bytes of p written
	if fbits>>63 != 0 {
		p[0], w = '-', 1
	}
	if frac == 0 && exp == 0 {
		p[w] = '0'
		return b[:at+w+1], nil
	}
	d, k := shortestDecimal(frac, exp)
	for d%10 == 0 { // integers and short decimals; a generic ratio's d has none
		d, k = d/10, k+1
	}
	n := decimalLen(d)
	// The value is 0.d × 10^point.
	switch point := n + k; {
	case point < -5 || point > 21:
		writeDigits(p[w+1:], d, n)
		p[w] = p[w+1]
		w++
		if n > 1 {
			p[w] = '.'
			w += n
		}
		x := point - 1
		p[w], p[w+1] = 'e', '+'
		if x < 0 {
			p[w+1], x = '-', -x
		}
		w += 2
		if x >= 100 {
			p[w] = byte('0' + x/100)
			x %= 100
			w++
		} else if x < 10 { // only a negative exponent is this small
			p[w] = byte('0' + x)
			return b[:at+w+1], nil
		}
		p[w], p[w+1] = digitPairs[2*x], digitPairs[2*x+1]
		w += 2
	case point <= 0:
		p[w], p[w+1] = '0', '.'
		w += 2
		for ; point < 0; point++ {
			p[w] = '0'
			w++
		}
		writeDigits(p[w:], d, n)
		w += n
	case point < n:
		writeDigits(p[w+1:], d, n)
		for end := w + point; w < end; w++ {
			p[w] = p[w+1]
		}
		p[w] = '.'
		w += n - point + 1
	default:
		writeDigits(p[w:], d, n)
		for w += n; n < point; n++ {
			p[w] = '0'
			w++
		}
	}
	return b[:at+w], nil
}

// decimalLen is the number of decimal digits of d, 0 < d < 1e19.
func decimalLen(d uint64) int {
	n := bits.Len64(d) * 1233 >> 12 // ⌊log10 2^len⌋
	if d >= uintPow10[n] {
		n++
	}
	return n
}

var uintPow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// writeDigits spells d, which has n digits, into p[:n], two digits a store
// from the right.
func writeDigits(p []byte, d uint64, n int) {
	p = p[:n]
	for n >= 2 {
		v := d % 100 * 2
		d /= 100
		n -= 2
		// Spelled so that the compiler merges the loads and the stores.
		pair := uint16(digitPairs[v]) | uint16(digitPairs[v+1])<<8
		p[n], p[n+1] = byte(pair), byte(pair>>8)
	}
	if n == 1 {
		p[0] = byte('0' + d)
	}
}

// shortestDecimal returns (d, k) with d × 10^k the shortest decimal inside
// the rounding interval of the finite, nonzero float64 whose fraction and
// exponent fields are frac and exp, the closest to it among those of that
// length, ties to even d. d may end in zeros.
func shortestDecimal(frac uint64, exp int) (d uint64, k int) {
	// The float is c × 2^q.
	c, q := frac, 1-1075
	if exp != 0 {
		c, q = frac|1<<52, exp-1075
		if 0 <= -q && -q < 53 && c&(1<<-q-1) == 0 {
			return c >> -q, 0 // an integer below 2^53
		}
	}
	// The interval's ends and the value, scaled by 4: the lower end is
	// half as far when c is the bottom of its binade.
	even := c&1 == 0
	cbl, cb, cbr := 4*c-2, 4*c, 4*c+2
	if frac == 0 && exp > 1 {
		cbl++
		k = (q*1262611 - 524031) >> 22 // ⌊log10 (3/4 × 2^q)⌋
	} else {
		k = q * 1262611 >> 22 // ⌊log10 2^q⌋
	}
	// 10^-k ≈ g × 2^(⌊log2 10^-k⌋ − 127); h in 1..4 lines the product's
	// integer part up with the high word.
	h := uint(q + (-k*1741647)>>19 + 1)
	g := &pow10Tab[-k-pow10Min]
	vbl, vb, vbr := roundToOdd(g, cbl<<h), roundToOdd(g, cb<<h), roundToOdd(g, cbr<<h)
	lower, upper := vbl, vbr
	if !even { // an odd c's interval is open
		lower, upper = vbl+1, vbr-1
	}
	s := vb / 4
	if s >= 10 { // is there a decimal one digit shorter inside?
		sp := s / 10
		below, above := lower <= 40*sp, 40*sp+40 <= upper
		if below != above {
			if above {
				sp++
			}
			return sp, k + 1
		}
	}
	below, above := lower <= 4*s, 4*s+4 <= upper
	if below != above {
		if above {
			s++
		}
		return s, k
	}
	// Both s and s+1 are inside: the closer one, the even one on a tie.
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// pow10Min and pow10Max bound the powers of ten shortestDecimal multiplies
// by: every float64 from the smallest subnormal to MaxFloat64 needs one in
// this range.
const (
	pow10Min = -292
	pow10Max = 324
)

// pow10Tab[k-pow10Min] is 10^k as a 128-bit significand {hi, lo}: the
// smallest g ≥ 10^k·2^-r with r = ⌊log2 10^k⌋ − 127, so that
// 2^127 ≤ g < 2^128 (exact for 0 ≤ k ≤ 55, rounded up elsewhere). It is
// built once, at package init; TestPow10Table rebuilds every entry
// independently and TestPow10TableDigest pins the whole table.
var pow10Tab = pow10Table()

// pow10Table walks 10^k exactly in math/big, up from 10^0 and down from
// 10^-1 with one multiply by ten per step, and keeps each power's top 128
// bits rounded up: 10^k itself shifted into place for k ≥ 0, and
// ⌈2^s / 10^-k⌉ for k < 0, with s putting the quotient in [2^127, 2^128) —
// never exact, since 10^-k is no power of two.
func pow10Table() (tab [pow10Max - pow10Min + 1][2]uint64) {
	one, ten := big.NewInt(1), big.NewInt(10)
	g, num := new(big.Int), new(big.Int)
	var w [16]byte
	put := func(k int) {
		g.FillBytes(w[:])
		tab[k-pow10Min] = [2]uint64{binary.BigEndian.Uint64(w[:8]), binary.BigEndian.Uint64(w[8:])}
	}
	p := big.NewInt(1)
	for k := 0; k <= pow10Max; k++ {
		if s := p.BitLen() - 128; s <= 0 {
			g.Lsh(p, uint(-s))
		} else {
			g.Rsh(p, uint(s))
			if p.TrailingZeroBits() < uint(s) { // bits were dropped
				g.Add(g, one)
			}
		}
		put(k)
		p.Mul(p, ten)
	}
	p.Set(ten)
	for k := -1; k >= pow10Min; k-- {
		g.Quo(num.Lsh(one, uint(127+p.BitLen())), p)
		g.Add(g, one)
		put(k)
		p.Mul(p, ten)
	}
	return tab
}

// roundToOdd is ⌊g × cp / 2^128⌋ with its low bit set when any bit below
// was: enough to compare the product against integers and half-integers.
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	xhi, _ := bits.Mul64(g[1], cp)
	yhi, ylo := bits.Mul64(g[0], cp)
	ylo, carry := bits.Add64(ylo, xhi, 0)
	yhi += carry
	if ylo > 1 {
		yhi |= 1
	}
	return yhi
}

// pow10Floor is 10^k as pow10Tab holds it but rounded down, the largest
// {hi, lo} ≤ 10^k·2^-r: a reader's product must never exceed the true one
// where a writer's must never fall short of it. That is the entry itself
// where it is exact — 10^k·2^-r is an integer when 5^k < 2^128, 0 ≤ k ≤ 55 —
// and one less everywhere else.
func pow10Floor(k int) (hi, lo uint64) {
	g := &pow10Tab[k-pow10Min]
	var inexact uint64
	if uint(k) > 55 {
		inexact = 1
	}
	lo, borrow := bits.Sub64(g[1], inexact, 0)
	return g[0] - borrow, lo
}

// decimalFloat returns the float64 nearest man × 10^exp10, ties to even,
// negated when neg, where man holds digits significant digits; or false
// where what it is given cannot say, and the caller converts the literal
// the slow way: more than 19 digits (man has wrapped), and what neither of
// its two methods decides. Digits and a power of ten that are both exact
// float64s meet in one correctly rounded operation (W. Clinger, "How to
// read floating point numbers accurately", 1990). Everything else is
// Eisel–Lemire (D. Lemire, "Number parsing at a gigabyte per second", 2021;
// the steps are strconv's): one 64 × 128-bit product of the normalised
// digits and the power of ten, of which the second half is computed only
// when the first leaves the rounding open. It gives up rather than guess
// where the truncated product cannot decide — a power outside pow10Tab, a
// product within one unit of a rounding boundary, a result outside the
// normal range.
func decimalFloat(man uint64, exp10, digits int, neg bool) (float64, bool) {
	if digits > 19 {
		return 0, false
	}
	if man>>53 == 0 && -19 <= exp10 && exp10 <= 19 {
		f := float64(man)
		if exp10 < 0 {
			f /= float64(uintPow10[-exp10])
		} else {
			f *= float64(uintPow10[exp10])
		}
		if neg {
			f = -f
		}
		return f, true
	}
	var sign uint64
	if neg {
		sign = 1 << 63
	}
	if man == 0 {
		return math.Float64frombits(sign), true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	ghi, glo := pow10Floor(exp10)

	clz := bits.LeadingZeros64(man)
	man <<= clz
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz) // 217706/2^16 ≈ log2 10

	hi, lo := bits.Mul64(man, ghi)
	if hi&0x1FF == 0x1FF && lo+man < man {
		// What glo adds could carry into the bits that round.
		yhi, ylo := bits.Mul64(man, glo)
		var carry uint64
		lo, carry = bits.Add64(lo, yhi, 0)
		hi += carry
		if hi&0x1FF == 0x1FF && lo+1 == 0 && ylo+man < man {
			return 0, false // and so could what the table itself dropped
		}
	}
	// 54 bits: the significand and one to round by.
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false // half-way to an even neighbour as far as these bits say
	}
	m = (m + m&1) >> 1
	if m>>53 != 0 {
		m >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 { // subnormal or infinite
		return 0, false
	}
	return math.Float64frombits(sign | exp2<<52 | m&(1<<52-1)), true
}
