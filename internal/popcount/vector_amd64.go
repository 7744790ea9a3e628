//go:build amd64

package popcount

import "math/bits"

// SIMD AND-count tiers for amd64. Detection is done once at init via
// CPUID/XGETBV (no cgo, no external deps): the AVX-512 tier needs
// AVX512F + VPOPCNTDQ with zmm state enabled in XCR0, the AVX2 tier
// needs AVX2 with ymm state enabled. The assembly bodies live in
// asm_amd64.s; each wrapper below rounds the length down to the
// vector's fold width and finishes with the exact scalar loop, so the
// results are bit-identical to AndCount/MaskedCounts on every input.

// Implemented in asm_amd64.s.
func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbvAsm() (eax, edx uint32)
func andCountAVX512(a, b *uint64, n int) uint64
func maskedCountsAVX512(si, ci, sj, cj *uint64, n int) (valid, nI, nJ, nIJ uint64)
func andCountAVX2(a, b *uint64, n int) uint64
func andCount3AVX2(a, b, c *uint64, n int) uint64
func andCount4AVX2(a, b, c, d *uint64, n int) uint64

var (
	hasAVX2         bool
	hasAVX512F      bool
	hasAVX512Popcnt bool
)

func init() {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return
	}
	xcr0, _ := xgetbvAsm()
	const ymmState = 0x6  // SSE + AVX state
	const zmmState = 0xe6 // + opmask, zmm_hi256, hi16_zmm
	if xcr0&ymmState != ymmState {
		return
	}
	_, ebx7, ecx7, _ := cpuidAsm(7, 0)
	hasAVX2 = ebx7&(1<<5) != 0
	const avx512f = 1 << 16       // CPUID(7,0).EBX
	const avx512vpopcnt = 1 << 14 // CPUID(7,0).ECX
	hasAVX512F = xcr0&zmmState == zmmState && ebx7&avx512f != 0
	hasAVX512Popcnt = hasAVX512F && ecx7&avx512vpopcnt != 0
}

// HasVector reports whether a SIMD AND-count tier is available on this
// host; when false the Vector entry points fall through to the portable
// CSA kernels.
func HasVector() bool { return hasAVX2 || hasAVX512Popcnt }

// HasAVX512F reports whether the host runs zmm arithmetic: AVX-512F in
// CPUID with the OS saving zmm state. The fused epilogue's row kernels in
// internal/core need exactly this, with or without VPOPCNTDQ.
func HasAVX512F() bool { return hasAVX512F }

// HasAVX512VPOPCNTDQ reports whether the host runs zmm VPOPCNTQ: AVX-512F
// and AVX512_VPOPCNTDQ in CPUID with the OS saving zmm state. The
// register-tiled micro-kernel of internal/kernel needs exactly this.
func HasAVX512VPOPCNTDQ() bool { return hasAVX512Popcnt }

// VectorName names the active SIMD tier for stats, tune profiles and
// /debug/vars: "avx512-vpopcntdq", "avx2-lut", or "none".
func VectorName() string {
	switch {
	case hasAVX512Popcnt:
		return "avx512-vpopcntdq"
	case hasAVX2:
		return "avx2-lut"
	default:
		return "none"
	}
}

// VectorFold reports how many word popcounts the active SIMD tier folds
// into one instruction (8 for AVX-512 VPOPCNTQ, 4 for the AVX2 ymm LUT),
// or 0 when no tier is available. Observability only: it feeds the
// popcounts-avoided driver counter.
func VectorFold() int {
	switch {
	case hasAVX512Popcnt:
		return 8
	case hasAVX2:
		return 4
	default:
		return 0
	}
}

// AndCountVector is AndCount through the best available SIMD tier,
// bit-identical to AndCount on every input.
func AndCountVector(a, b []uint64) int {
	n := len(a)
	_ = b[:n]
	var total uint64
	i := 0
	switch {
	case hasAVX512Popcnt:
		if k := n &^ 7; k > 0 {
			total = andCountAVX512(&a[0], &b[0], k)
			i = k
		}
	case hasAVX2:
		if k := n &^ 3; k > 0 {
			total = andCountAVX2(&a[0], &b[0], k)
			i = k
		}
	default:
		return AndCountCSA(a, b)
	}
	t := int(total)
	for ; i < n; i++ {
		t += bits.OnesCount64(a[i] & b[i])
	}
	return t
}

// MaskedCountsVector computes the four gap-aware counts through the best
// available SIMD tier — a single fused pass on AVX-512, four LUT passes
// on AVX2 — bit-identical to MaskedCounts on every input.
func MaskedCountsVector(si, ci, sj, cj []uint64) (valid, nI, nJ, nIJ int) {
	n := len(ci)
	_, _, _ = cj[:n], si[:n], sj[:n]
	i := 0
	switch {
	case hasAVX512Popcnt:
		if k := n &^ 7; k > 0 {
			v, a, b, ab := maskedCountsAVX512(&si[0], &ci[0], &sj[0], &cj[0], k)
			valid, nI, nJ, nIJ = int(v), int(a), int(b), int(ab)
			i = k
		}
	case hasAVX2:
		if k := n &^ 3; k > 0 {
			valid = int(andCountAVX2(&ci[0], &cj[0], k))
			nI = int(andCount3AVX2(&ci[0], &cj[0], &si[0], k))
			nJ = int(andCount3AVX2(&ci[0], &cj[0], &sj[0], k))
			nIJ = int(andCount4AVX2(&ci[0], &cj[0], &si[0], &sj[0], k))
			i = k
		}
	default:
		return MaskedCountsCSA(si, ci, sj, cj)
	}
	for ; i < n; i++ {
		cij := ci[i] & cj[i]
		valid += bits.OnesCount64(cij)
		nI += bits.OnesCount64(cij & si[i])
		nJ += bits.OnesCount64(cij & sj[i])
		nIJ += bits.OnesCount64(cij & si[i] & sj[i])
	}
	return valid, nI, nJ, nIJ
}
