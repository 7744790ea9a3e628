// Package kernel implements the register-blocked LD micro-kernels of
// Section IV of the paper.
//
// A micro-kernel computes a small mr×nr tile of the haplotype count matrix
//
//	C[i,j] += Σ_{l<kc} POPCNT(A[l,i] & B[l,j])
//
// from two packed panels. The panels use the BLIS packing layout: the A
// panel interleaves mr SNPs word-by-word (ap[l*mr+i] is word l of micro-row
// i), and the B panel interleaves nr SNPs (bp[l*nr+j]). Interleaving makes
// the kc loop walk both panels with unit stride, so the micro-kernel streams
// two contiguous buffers while its mr·nr accumulators stay in registers —
// exactly the structure a BLIS dgemm micro-kernel has, with the FMA replaced
// by the AND+POPCNT+ADD triple.
//
// The same layout serves the vector tile (AVX512Name, tile_amd64.s): the nr
// B words of one sample word are contiguous, so they are one zmm load, and
// the mr A words are its broadcast operands. Default resolves, once per
// host, between that tile and the portable Go 4x4.
package kernel

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// Func computes an MR×NR micro-tile: c[i*ldc+j] accumulates the haplotype
// counts. ap holds kc*MR words, bp holds kc*NR words, packed as described
// in the package comment.
type Func func(kc int, ap, bp []uint64, c []uint32, ldc int)

// RowFunc computes nt consecutive MR×NR micro-tiles of one row of tiles in
// a single call: the A micro-panel ap against the B micro-panels starting
// at bp[t*bstride], t < nt, tile t's cell (i, j) being c[i*ldc+t*NR+j].
// With acc set the counts are added into c, as Func does; without it they
// are stored over whatever c held (BLAS β = 0), so the first rank-k update
// of a C that nobody cleared is exact.
//
// pf is the destination hint, nil for none: the first byte the caller will
// write when it converts tile 0's row 0 of these counts to float64s, the
// rows of that output pfRowBytes ≥ 0 apart. A kernel may prefetch tile t's
// MR output rows — pf + r·pfRowBytes + 8·NR·t — while it counts; it never
// reads or writes through the hint, so no result depends on it and it may
// run past the end of the caller's matrix.
type RowFunc func(kc int, ap, bp []uint64, bstride, nt int, c []uint32, ldc int, acc bool, pf unsafe.Pointer, pfRowBytes int)

// Kernel bundles a micro-kernel with its register-block shape.
type Kernel struct {
	Name string
	MR   int
	NR   int
	// Lanes is how many cells one popcount instruction of Fn serves: 0 for
	// the Go kernels (one scalar POPCNT per cell and word), 8 for the zmm
	// VPOPCNTQ tile. A kernel with Lanes > 1 is itself the vector engine:
	// the driver runs it on interleaved panels at every k and reports it
	// as such.
	Lanes int
	Fn    Func
	// Row, when non-nil, is the kernel's own loop over a row of tiles (the
	// assembly tile's; nil for the Go kernels, which the driver loops Fn
	// over instead). Fn and Row must count the same tile: Row at nt = 1
	// with acc set is Fn bit for bit, and the driver calls Row wherever it
	// is set — so whoever wraps or replaces Fn must wrap, replace or nil
	// Row with it, or the wrapper is bypassed.
	Row RowFunc
}

// Generic returns a micro-kernel of arbitrary shape built from nested
// loops. It is the reference implementation the fixed-shape kernels are
// tested against, and handles fringe tiles in the driver.
func Generic(mr, nr int) Kernel {
	fn := func(kc int, ap, bp []uint64, c []uint32, ldc int) {
		for l := 0; l < kc; l++ {
			a := ap[l*mr : (l+1)*mr]
			b := bp[l*nr : (l+1)*nr]
			for i := 0; i < mr; i++ {
				ai := a[i]
				row := c[i*ldc : i*ldc+nr]
				for j := 0; j < nr; j++ {
					row[j] += uint32(bits.OnesCount64(ai & b[j]))
				}
			}
		}
	}
	return Kernel{Name: fmt.Sprintf("generic%dx%d", mr, nr), MR: mr, NR: nr, Fn: fn}
}

// micro1x1 is the degenerate register blocking: a plain dot product. It is
// the shape an unblocked vector-kernel LD implementation uses per pair.
func micro1x1(kc int, ap, bp []uint64, c []uint32, ldc int) {
	var acc uint32
	for l := 0; l < kc; l++ {
		acc += uint32(bits.OnesCount64(ap[l] & bp[l]))
	}
	c[0] += acc
}

// micro4x4 keeps 16 accumulators live; with 14+ integer registers on amd64
// this is near the sweet spot for the AND+POPCNT+ADD triple in Go.
func micro4x4(kc int, ap, bp []uint64, c []uint32, ldc int) {
	var (
		c00, c01, c02, c03 uint32
		c10, c11, c12, c13 uint32
		c20, c21, c22, c23 uint32
		c30, c31, c32, c33 uint32
	)
	for l := 0; l < kc; l++ {
		a := ap[4*l : 4*l+4 : 4*l+4]
		b := bp[4*l : 4*l+4 : 4*l+4]
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += uint32(bits.OnesCount64(a0 & b0))
		c01 += uint32(bits.OnesCount64(a0 & b1))
		c02 += uint32(bits.OnesCount64(a0 & b2))
		c03 += uint32(bits.OnesCount64(a0 & b3))
		c10 += uint32(bits.OnesCount64(a1 & b0))
		c11 += uint32(bits.OnesCount64(a1 & b1))
		c12 += uint32(bits.OnesCount64(a1 & b2))
		c13 += uint32(bits.OnesCount64(a1 & b3))
		c20 += uint32(bits.OnesCount64(a2 & b0))
		c21 += uint32(bits.OnesCount64(a2 & b1))
		c22 += uint32(bits.OnesCount64(a2 & b2))
		c23 += uint32(bits.OnesCount64(a2 & b3))
		c30 += uint32(bits.OnesCount64(a3 & b0))
		c31 += uint32(bits.OnesCount64(a3 & b1))
		c32 += uint32(bits.OnesCount64(a3 & b2))
		c33 += uint32(bits.OnesCount64(a3 & b3))
	}
	c[0] += c00
	c[1] += c01
	c[2] += c02
	c[3] += c03
	c[ldc] += c10
	c[ldc+1] += c11
	c[ldc+2] += c12
	c[ldc+3] += c13
	c[2*ldc] += c20
	c[2*ldc+1] += c21
	c[2*ldc+2] += c22
	c[2*ldc+3] += c23
	c[3*ldc] += c30
	c[3*ldc+1] += c31
	c[3*ldc+2] += c32
	c[3*ldc+3] += c33
}

// Fixed enumerates the hand-unrolled Go micro-kernels: the 1x1 dot product
// (the per-pair shape, for the ablation) and the 4x4 every host without
// the vector tile runs. Any other register shape is a Generic instance.
var Fixed = []Kernel{
	{Name: "1x1", MR: 1, NR: 1, Fn: micro1x1},
	{Name: "4x4", MR: 4, NR: 4, Fn: micro4x4},
}

// Portable is the pure-Go default: 4x4 keeps all 16 accumulators plus both
// operand quads in registers, the fastest Go shape on amd64 (see
// BenchmarkMicroKernel). It is what every host without the vector tile
// runs and the oracle the tile is pinned to.
var Portable = Fixed[1]

// AVX512Name names the register-tiled AVX-512 VPOPCNTQ micro-kernel
// (tile_amd64.s): 8×8, broadcast A word × eight B words per zmm, one
// VPANDQ/VPOPCNTQ/VPADDQ per row and sample word, no cross-lane reduction.
// It consumes the same interleaved PackPanel layout as the Go kernels.
const AVX512Name = "8x8-avx512"

// Default is the micro-kernel the BLIS driver selects when not overridden,
// resolved once for this host: the vector tile where AVX-512F + VPOPCNTDQ
// are usable (set by the amd64 init), Portable everywhere else. Every "the
// default kernel" in the tree reads this one value, and Default.Lanes > 1
// is the one test of "does this host run the tile".
var Default = Portable

// DisableVectorTileForTest makes Default resolve as on a host without
// AVX-512 VPOPCNTDQ until restore is called, so one host tests both
// routes. Not safe beside running driver calls.
func DisableVectorTileForTest() (restore func()) {
	d := Default
	Default = Portable
	return func() { Default = d }
}
