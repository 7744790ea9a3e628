//go:build !amd64

package popcount

// Non-amd64 builds have no SIMD tier; the Vector entry points degrade to
// the portable CSA kernels, which are bit-identical to the scalar path.

// HasVector reports whether a SIMD AND-count tier is available.
func HasVector() bool { return false }

// HasAVX512F reports whether the host runs zmm arithmetic.
func HasAVX512F() bool { return false }

// HasAVX512VPOPCNTDQ reports whether the host runs zmm VPOPCNTQ.
func HasAVX512VPOPCNTDQ() bool { return false }

// VectorName names the active SIMD tier.
func VectorName() string { return "none" }

// VectorFold reports how many word popcounts the active SIMD tier folds
// into one instruction; 0 when no tier is available.
func VectorFold() int { return 0 }

// AndCountVector is AndCount through the portable CSA kernel.
func AndCountVector(a, b []uint64) int { return AndCountCSA(a, b) }

// MaskedCountsVector computes the four gap-aware counts through the
// portable CSA kernels.
func MaskedCountsVector(si, ci, sj, cj []uint64) (valid, nI, nJ, nIJ int) {
	return MaskedCountsCSA(si, ci, sj, cj)
}
