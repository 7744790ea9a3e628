//go:build amd64

package popcount

import "math/bits"

// SIMD AND-count tiers for amd64. Detection is done once at init via
// CPUID/XGETBV (no cgo, no external deps): the AVX-512 tier needs
// AVX512F + VPOPCNTDQ with zmm state enabled in XCR0, the AVX2 tier
// needs AVX2 with ymm state enabled. The assembly bodies live in
// asm_amd64.s; AndCountVector rounds the length down to the vector's
// fold width and finishes with the exact scalar loop, so its result is
// bit-identical to AndCount on every input.

// Implemented in asm_amd64.s.
func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbvAsm() (eax, edx uint32)
func andCountAVX512(a, b *uint64, n int) uint64
func andCountAVX2(a, b *uint64, n int) uint64

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
// host; when false AndCountVector falls through to the portable CSA
// kernel.
func HasVector() bool { return hasAVX2 || hasAVX512Popcnt }

// HasAVX512F reports whether the host runs zmm arithmetic: AVX-512F in
// CPUID with the OS saving zmm state. The fused epilogue's row kernels in
// internal/core need exactly this, with or without VPOPCNTDQ.
func HasAVX512F() bool { return hasAVX512F }

// HasAVX512VPOPCNTDQ reports whether the host runs zmm VPOPCNTQ: AVX-512F
// and AVX512_VPOPCNTDQ in CPUID with the OS saving zmm state. The
// register-tiled micro-kernel of internal/kernel needs exactly this.
func HasAVX512VPOPCNTDQ() bool { return hasAVX512Popcnt }

// HasAVX512VL reports whether the host runs AVX-512 instructions on xmm
// and ymm registers: AVX-512F and AVX512VL in CPUID with the OS saving zmm
// state. VPOPCNTQ at two and four lanes needs it beside VPOPCNTDQ. It asks
// CPUID on each call rather than at init, so that a binary which never
// calls it (every one but ldbench) links the same init code as before.
func HasAVX512VL() bool {
	const avx512vl = 1 << 31 // CPUID(7,0).EBX
	_, ebx7, _, _ := cpuidAsm(7, 0)
	return hasAVX512F && ebx7&avx512vl != 0
}

// VectorName names the active SIMD tier for stats and /debug/vars:
// "avx512-vpopcntdq", "avx2-lut", or "none".
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
