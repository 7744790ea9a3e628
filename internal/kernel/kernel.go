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
	// as such (see blis.Config.PlainKernel).
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

// micro2x2 keeps 4 accumulators live.
func micro2x2(kc int, ap, bp []uint64, c []uint32, ldc int) {
	var c00, c01, c10, c11 uint32
	for l := 0; l < kc; l++ {
		a0, a1 := ap[2*l], ap[2*l+1]
		b0, b1 := bp[2*l], bp[2*l+1]
		c00 += uint32(bits.OnesCount64(a0 & b0))
		c01 += uint32(bits.OnesCount64(a0 & b1))
		c10 += uint32(bits.OnesCount64(a1 & b0))
		c11 += uint32(bits.OnesCount64(a1 & b1))
	}
	c[0] += c00
	c[1] += c01
	c[ldc] += c10
	c[ldc+1] += c11
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

// micro8x4 trades A reuse for more accumulators (32), amortizing each B
// load over eight rows.
func micro8x4(kc int, ap, bp []uint64, c []uint32, ldc int) {
	var acc [8][4]uint32
	for l := 0; l < kc; l++ {
		a := ap[8*l : 8*l+8 : 8*l+8]
		b := bp[4*l : 4*l+4 : 4*l+4]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		for i := 0; i < 8; i++ {
			ai := a[i]
			acc[i][0] += uint32(bits.OnesCount64(ai & b0))
			acc[i][1] += uint32(bits.OnesCount64(ai & b1))
			acc[i][2] += uint32(bits.OnesCount64(ai & b2))
			acc[i][3] += uint32(bits.OnesCount64(ai & b3))
		}
	}
	for i := 0; i < 8; i++ {
		row := c[i*ldc : i*ldc+4]
		row[0] += acc[i][0]
		row[1] += acc[i][1]
		row[2] += acc[i][2]
		row[3] += acc[i][3]
	}
}

// micro4x8 is the transpose-shaped variant of micro8x4.
func micro4x8(kc int, ap, bp []uint64, c []uint32, ldc int) {
	var acc [4][8]uint32
	for l := 0; l < kc; l++ {
		a := ap[4*l : 4*l+4 : 4*l+4]
		b := bp[8*l : 8*l+8 : 8*l+8]
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		for j := 0; j < 8; j++ {
			bj := b[j]
			acc[0][j] += uint32(bits.OnesCount64(a0 & bj))
			acc[1][j] += uint32(bits.OnesCount64(a1 & bj))
			acc[2][j] += uint32(bits.OnesCount64(a2 & bj))
			acc[3][j] += uint32(bits.OnesCount64(a3 & bj))
		}
	}
	for i := 0; i < 4; i++ {
		row := c[i*ldc : i*ldc+8]
		for j := 0; j < 8; j++ {
			row[j] += acc[i][j]
		}
	}
}

// micro8x8 uses 64 accumulators; past what fits in registers, but each
// loaded panel word is reused 8×, which pays on memory-bound shapes.
func micro8x8(kc int, ap, bp []uint64, c []uint32, ldc int) {
	var acc [8][8]uint32
	for l := 0; l < kc; l++ {
		a := ap[8*l : 8*l+8 : 8*l+8]
		b := bp[8*l : 8*l+8 : 8*l+8]
		for i := 0; i < 8; i++ {
			ai := a[i]
			ri := &acc[i]
			ri[0] += uint32(bits.OnesCount64(ai & b[0]))
			ri[1] += uint32(bits.OnesCount64(ai & b[1]))
			ri[2] += uint32(bits.OnesCount64(ai & b[2]))
			ri[3] += uint32(bits.OnesCount64(ai & b[3]))
			ri[4] += uint32(bits.OnesCount64(ai & b[4]))
			ri[5] += uint32(bits.OnesCount64(ai & b[5]))
			ri[6] += uint32(bits.OnesCount64(ai & b[6]))
			ri[7] += uint32(bits.OnesCount64(ai & b[7]))
		}
	}
	for i := 0; i < 8; i++ {
		row := c[i*ldc : i*ldc+8]
		for j := 0; j < 8; j++ {
			row[j] += acc[i][j]
		}
	}
}

// Fixed enumerates every hand-unrolled Go micro-kernel.
var Fixed = []Kernel{
	{Name: "1x1", MR: 1, NR: 1, Fn: micro1x1},
	{Name: "2x2", MR: 2, NR: 2, Fn: micro2x2},
	{Name: "4x4", MR: 4, NR: 4, Fn: micro4x4},
	{Name: "8x4", MR: 8, NR: 4, Fn: micro8x4},
	{Name: "4x8", MR: 4, NR: 8, Fn: micro4x8},
	{Name: "8x8", MR: 8, NR: 8, Fn: micro8x8},
}

// Portable is the pure-Go default: 4x4 keeps all 16 accumulators plus both
// operand quads in registers and is the fastest Go shape on amd64 (see
// BenchmarkMicroKernel). It is what every host without the vector tile
// runs, what a forced scalar or CSA strategy runs everywhere, and the
// oracle the tile is pinned to.
var Portable = Fixed[2]

// AVX512Name names the register-tiled AVX-512 VPOPCNTQ micro-kernel
// (tile_amd64.s): 8×8, broadcast A word × eight B words per zmm, one
// VPANDQ/VPOPCNTQ/VPADDQ per row and sample word, no cross-lane reduction.
// It consumes the same interleaved PackPanel layout as the Go kernels.
const AVX512Name = "8x8-avx512"

// vectorTile is the AVX512Name kernel where the host can run it (set by
// the amd64 init), the zero Kernel elsewhere.
var vectorTile Kernel

// Default is the micro-kernel the BLIS driver selects when not overridden,
// resolved once for this host: the vector tile where AVX-512F + VPOPCNTDQ
// are usable, Portable everywhere else. Every "the default kernel" in the
// tree reads this one value.
var Default = Portable

// DisableVectorTileForTest makes Default and ByName resolve as on a host
// without AVX-512 VPOPCNTDQ until restore is called, so one host tests
// both routes. Not safe beside running driver calls.
func DisableVectorTileForTest() (restore func()) {
	d, t := Default, vectorTile
	Default, vectorTile = Portable, Kernel{}
	return func() { Default, vectorTile = d, t }
}

// ByName returns a kernel by name, or an error listing choices. The vector
// tile resolves only where it can run: a name from a profile or a flag
// must never reach an instruction the host lacks.
func ByName(name string) (Kernel, error) {
	if name == AVX512Name {
		if vectorTile.Fn == nil {
			return Kernel{}, fmt.Errorf("kernel: micro-kernel %q needs amd64 with AVX-512F and AVX512_VPOPCNTDQ and OS-enabled zmm state, which this host lacks", name)
		}
		return vectorTile, nil
	}
	for _, k := range Fixed {
		if k.Name == name {
			return k, nil
		}
	}
	names := make([]string, len(Fixed))
	for i, k := range Fixed {
		names[i] = k.Name
	}
	if vectorTile.Fn != nil {
		names = append(names, vectorTile.Name)
	}
	return Kernel{}, fmt.Errorf("kernel: unknown micro-kernel %q (have %v)", name, names)
}
