//go:build amd64

package kernel

import (
	"unsafe"

	"ldgemm/internal/popcount"
)

// Implemented in tile_amd64.s.
//
//go:noescape
func tileRow8x8VPOPCNTQ(kc int, ap, bp *uint64, bstride, nt int, c *uint32, ldc int, acc bool, pf unsafe.Pointer, pfRowBytes int)

// row8x8AVX512 is the RowFunc face of the assembly tile. The assembly reads
// 8·kc words of the A panel and of each of nt B panels and writes 8·nt
// dwords on each of eight C rows without looking at a slice length, so the
// extents are checked here, by the same index expressions whose failure a
// Go kernel would panic on. The hint is only ever prefetched from, which
// cannot fault, so it has no extent to check — but a negative row distance
// is still a caller's bug and refused like the other strides.
func row8x8AVX512(kc int, ap, bp []uint64, bstride, nt int, c []uint32, ldc int, acc bool, pf unsafe.Pointer, pfRowBytes int) {
	if nt < 1 {
		return
	}
	if ldc < 0 || bstride < 0 || pfRowBytes < 0 {
		panic("kernel: negative stride")
	}
	if kc < 1 {
		if !acc {
			for i := 0; i < 8; i++ {
				clear(c[i*ldc : i*ldc+8*nt])
			}
		}
		return
	}
	_, _, _ = ap[8*kc-1], bp[(nt-1)*bstride+8*kc-1], c[7*ldc+8*nt-1]
	tileRow8x8VPOPCNTQ(kc, &ap[0], &bp[0], bstride, nt, &c[0], ldc, acc, pf, pfRowBytes)
}

// fn8x8AVX512 is the Func face: the row of one tile, added into C, with
// no destination hint.
func fn8x8AVX512(kc int, ap, bp []uint64, c []uint32, ldc int) {
	row8x8AVX512(kc, ap, bp, 0, 1, c, ldc, true, nil, 0)
}

func init() {
	if popcount.HasAVX512VPOPCNTDQ() {
		Default = Kernel{Name: AVX512Name, MR: 8, NR: 8, Lanes: 8, Fn: fn8x8AVX512, Row: row8x8AVX512}
	}
}
