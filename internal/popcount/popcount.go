// Package popcount collects the population-count kernels the paper's
// analysis revolves around (Sections IV–V and references [17, 18]).
//
// The LD inner loop is POPCNT(sᵢ & sⱼ) accumulated over 64-bit words. On
// x86 the paper uses the POPCNT instruction; in Go, math/bits.OnesCount64
// compiles to that same instruction on amd64. The single-word software
// alternatives (SWAR, lookup tables) are ablation subjects: the paper cites
// [18] for the claim that software counters underperform the hardware
// instruction, and BenchmarkPopcount* reproduces that comparison. The
// Harley–Seal carry-save tree lives in csa.go, over AND-ed streams, as the
// portable batch kernel.
package popcount

import "math/bits"

// Word counts the set bits of a single word with the hardware popcount.
func Word(x uint64) int { return bits.OnesCount64(x) }

// SWAR counts set bits with the classic carry-save/SWAR bit trick
// (Hacker's Delight, Fig. 5-2): three masking rounds and a multiply.
func SWAR(x uint64) int {
	x -= x >> 1 & 0x5555555555555555
	x = x&0x3333333333333333 + x>>2&0x3333333333333333
	x = (x + x>>4) & 0x0f0f0f0f0f0f0f0f
	return int(x * 0x0101010101010101 >> 56)
}

// lut8 is the byte-wise popcount lookup table used by Lookup8.
var lut8 [256]uint8

// lut16 is the 16-bit lookup table used by Lookup16.
var lut16 [65536]uint8

func init() {
	for i := range lut8 {
		lut8[i] = uint8(bits.OnesCount8(uint8(i)))
	}
	for i := range lut16 {
		lut16[i] = uint8(bits.OnesCount16(uint16(i)))
	}
}

// Lookup8 counts set bits via eight byte-table lookups.
func Lookup8(x uint64) int {
	return int(lut8[x&0xff] + lut8[x>>8&0xff] + lut8[x>>16&0xff] + lut8[x>>24&0xff] +
		lut8[x>>32&0xff] + lut8[x>>40&0xff] + lut8[x>>48&0xff] + lut8[x>>56&0xff])
}

// Lookup16 counts set bits via four 16-bit-table lookups.
func Lookup16(x uint64) int {
	return int(lut16[x&0xffff] + lut16[x>>16&0xffff] + lut16[x>>32&0xffff] + lut16[x>>48])
}

// AndCount returns Σ popcount(a[i] & b[i]) — the haplotype count
// POPCNT(sᵢ & sⱼ) of Section IV, the fundamental LD word kernel.
// The slices must have equal length.
func AndCount(a, b []uint64) int {
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] & b[i])
	}
	return n
}

// AndCount3 returns Σ popcount(a[i] & b[i] & c[i]), the masked haplotype
// count POPCNT(c_ij & sᵢ & sⱼ) of Section VII.
func AndCount3(a, b, c []uint64) int {
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] & b[i] & c[i])
	}
	return n
}

// csa is a carry-save adder step: (a+b+c) = 2·carry + sum, bitwise.
func csa(a, b, c uint64) (carry, sum uint64) {
	u := a ^ b
	return a&b | u&c, u ^ c
}

// Counter is a single-word popcount implementation, for the popcount
// ablation.
type Counter func(uint64) int

// AndCountWith is AndCount parameterized by counter implementation, used by
// the popcount ablation benchmarks.
func AndCountWith(count Counter, a, b []uint64) int {
	n := 0
	for i := range a {
		n += count(a[i] & b[i])
	}
	return n
}
