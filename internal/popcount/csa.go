package popcount

import "math/bits"

// The CSA-batched AND-count kernels: Harley–Seal carry-save-adder trees
// over the AND of two (or three, or four) word streams. Where AndCount
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
// vectorized (see vector_amd64.go) — so these kernels are what the Vector
// entry points fall back to without a SIMD tier, and the reference the
// SIMD paths are tested against.

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

// AndCount3CSA is AndCount3 (Σ popcount(a[i] & b[i] & c[i])) through the
// same fold-16 CSA tree. Bit-identical to AndCount3.
func AndCount3CSA(a, b, c []uint64) int {
	n := len(a)
	_, _ = b[:n], c[:n]
	total := 0
	var ones, twos, fours, eights uint64
	i := 0
	for ; i+16 <= n; i += 16 {
		var twosA, twosB, foursA, foursB, eightsA, eightsB, sixteens uint64
		twosA, ones = csa(ones, a[i]&b[i]&c[i], a[i+1]&b[i+1]&c[i+1])
		twosB, ones = csa(ones, a[i+2]&b[i+2]&c[i+2], a[i+3]&b[i+3]&c[i+3])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, a[i+4]&b[i+4]&c[i+4], a[i+5]&b[i+5]&c[i+5])
		twosB, ones = csa(ones, a[i+6]&b[i+6]&c[i+6], a[i+7]&b[i+7]&c[i+7])
		foursB, twos = csa(twos, twosA, twosB)
		eightsA, fours = csa(fours, foursA, foursB)
		twosA, ones = csa(ones, a[i+8]&b[i+8]&c[i+8], a[i+9]&b[i+9]&c[i+9])
		twosB, ones = csa(ones, a[i+10]&b[i+10]&c[i+10], a[i+11]&b[i+11]&c[i+11])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, a[i+12]&b[i+12]&c[i+12], a[i+13]&b[i+13]&c[i+13])
		twosB, ones = csa(ones, a[i+14]&b[i+14]&c[i+14], a[i+15]&b[i+15]&c[i+15])
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
		total += bits.OnesCount64(a[i] & b[i] & c[i])
	}
	return total
}

// andCount4CSA is Σ popcount(a[i] & b[i] & c[i] & d[i]) through the
// fold-16 tree — the joint-derived count of the masked kernel.
func andCount4CSA(a, b, c, d []uint64) int {
	n := len(a)
	_, _, _ = b[:n], c[:n], d[:n]
	total := 0
	var ones, twos, fours, eights uint64
	i := 0
	for ; i+16 <= n; i += 16 {
		var twosA, twosB, foursA, foursB, eightsA, eightsB, sixteens uint64
		twosA, ones = csa(ones, a[i]&b[i]&c[i]&d[i], a[i+1]&b[i+1]&c[i+1]&d[i+1])
		twosB, ones = csa(ones, a[i+2]&b[i+2]&c[i+2]&d[i+2], a[i+3]&b[i+3]&c[i+3]&d[i+3])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, a[i+4]&b[i+4]&c[i+4]&d[i+4], a[i+5]&b[i+5]&c[i+5]&d[i+5])
		twosB, ones = csa(ones, a[i+6]&b[i+6]&c[i+6]&d[i+6], a[i+7]&b[i+7]&c[i+7]&d[i+7])
		foursB, twos = csa(twos, twosA, twosB)
		eightsA, fours = csa(fours, foursA, foursB)
		twosA, ones = csa(ones, a[i+8]&b[i+8]&c[i+8]&d[i+8], a[i+9]&b[i+9]&c[i+9]&d[i+9])
		twosB, ones = csa(ones, a[i+10]&b[i+10]&c[i+10]&d[i+10], a[i+11]&b[i+11]&c[i+11]&d[i+11])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, a[i+12]&b[i+12]&c[i+12]&d[i+12], a[i+13]&b[i+13]&c[i+13]&d[i+13])
		twosB, ones = csa(ones, a[i+14]&b[i+14]&c[i+14]&d[i+14], a[i+15]&b[i+15]&c[i+15]&d[i+15])
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
		total += bits.OnesCount64(a[i] & b[i] & c[i] & d[i])
	}
	return total
}

// MaskedCountsCSA computes the four Section VII gap-aware counts of one
// SNP pair — valid = popc(cᵢ&cⱼ), nI = popc(cᵢⱼ&sᵢ), nJ = popc(cᵢⱼ&sⱼ),
// nIJ = popc(cᵢⱼ&sᵢ&sⱼ) — through the CSA trees. Callers must have
// applied the masks to the value streams (s = s & c), as the packed
// kernels do. Bit-identical to MaskedCounts.
func MaskedCountsCSA(si, ci, sj, cj []uint64) (valid, nI, nJ, nIJ int) {
	valid = AndCountCSA(ci, cj)
	nI = AndCount3CSA(ci, cj, si)
	nJ = AndCount3CSA(ci, cj, sj)
	nIJ = andCount4CSA(ci, cj, si, sj)
	return valid, nI, nJ, nIJ
}

// MaskedCounts computes the four gap-aware counts with the plain
// hardware popcount in a single pass; the scalar reference the batched
// masked kernels are checked against.
func MaskedCounts(si, ci, sj, cj []uint64) (valid, nI, nJ, nIJ int) {
	n := len(ci)
	_, _, _ = cj[:n], si[:n], sj[:n]
	for w := 0; w < n; w++ {
		cij := ci[w] & cj[w]
		valid += bits.OnesCount64(cij)
		nI += bits.OnesCount64(cij & si[w])
		nJ += bits.OnesCount64(cij & sj[w])
		nIJ += bits.OnesCount64(cij & si[w] & sj[w])
	}
	return valid, nI, nJ, nIJ
}

// Count is the single-word popcount with the uint32 result the LD
// kernels accumulate in; every scalar loop calls it, so a change of
// scalar counter has one home. The compiler inlines it to the hardware POPCNT
// instruction on amd64.
func Count(x uint64) uint32 { return uint32(bits.OnesCount64(x)) }
