package popcount

import "math/bits"

// The CSA-batched AND-count kernel: a Harley–Seal carry-save-adder tree
// over the AND of two word streams. Where AndCount
// issues one POPCNT per word-pair, these fold 16 AND-results through a
// ones/twos/fours/eights accumulator tree and popcount only the sixteens
// output — 16× fewer popcounts at the cost of ~5 cheap logic ops per
// word, the trade Clausecker & Lemire's positional-popcount work builds
// on. The fold is tail-correct: any length that is not a multiple of 16
// finishes with the exact scalar loop after the accumulators are flushed
// (integer counts, so the split point never changes the result).
//
// On hosts where the hardware popcount dual-issues (modern x86), the
// scalar AndCount still wins in pure Go — batching only pays off
// vectorized (see vector_amd64.go) — so this kernel is what AndCountVector
// falls back to without a SIMD tier, and the reference the SIMD paths are
// tested against.

// AndCountCSA is AndCount (Σ popcount(a[i] & b[i])) computed through a
// fold-16 Harley–Seal CSA tree. Bit-identical to AndCount for every
// input; the slices must have equal length.
func AndCountCSA(a, b []uint64) int {
	n := len(a)
	_ = b[:n]
	total := 0
	var ones, twos, fours, eights uint64
	i := 0
	for ; i+16 <= n; i += 16 {
		var twosA, twosB, foursA, foursB, eightsA, eightsB, sixteens uint64
		twosA, ones = csa(ones, a[i]&b[i], a[i+1]&b[i+1])
		twosB, ones = csa(ones, a[i+2]&b[i+2], a[i+3]&b[i+3])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, a[i+4]&b[i+4], a[i+5]&b[i+5])
		twosB, ones = csa(ones, a[i+6]&b[i+6], a[i+7]&b[i+7])
		foursB, twos = csa(twos, twosA, twosB)
		eightsA, fours = csa(fours, foursA, foursB)
		twosA, ones = csa(ones, a[i+8]&b[i+8], a[i+9]&b[i+9])
		twosB, ones = csa(ones, a[i+10]&b[i+10], a[i+11]&b[i+11])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, a[i+12]&b[i+12], a[i+13]&b[i+13])
		twosB, ones = csa(ones, a[i+14]&b[i+14], a[i+15]&b[i+15])
		foursB, twos = csa(twos, twosA, twosB)
		eightsB, fours = csa(fours, foursA, foursB)
		sixteens, eights = csa(eights, eightsA, eightsB)
		total += 16 * bits.OnesCount64(sixteens)
	}
	total += 8 * bits.OnesCount64(eights)
	total += 4 * bits.OnesCount64(fours)
	total += 2 * bits.OnesCount64(twos)
	total += bits.OnesCount64(ones)
	for ; i < n; i++ {
		total += bits.OnesCount64(a[i] & b[i])
	}
	return total
}

// Count is the single-word popcount with the uint32 result the LD
// kernels accumulate in; every scalar loop calls it, so a change of
// scalar counter has one home. The compiler inlines it to the hardware POPCNT
// instruction on amd64.
func Count(x uint64) uint32 { return uint32(bits.OnesCount64(x)) }
