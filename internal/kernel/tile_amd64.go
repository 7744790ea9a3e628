//go:build amd64

package kernel

import "ldgemm/internal/popcount"

// Implemented in tile_amd64.s.
//
//go:noescape
func tile8x8VPOPCNTQ(kc int, ap, bp *uint64, c *uint32, ldc int)

// micro8x8AVX512 is the Func face of the assembly tile. The assembly reads
// 8·kc words of each panel and writes eight dwords on each of eight C rows
// without looking at a slice length, so the extents are checked here, by
// the same index expressions whose failure a Go kernel would panic on.
func micro8x8AVX512(kc int, ap, bp []uint64, c []uint32, ldc int) {
	if kc < 1 {
		return
	}
	if ldc < 0 {
		panic("kernel: negative ldc")
	}
	_, _, _ = ap[8*kc-1], bp[8*kc-1], c[7*ldc+7]
	tile8x8VPOPCNTQ(kc, &ap[0], &bp[0], &c[0], ldc)
}

func init() {
	if popcount.HasAVX512VPOPCNTDQ() {
		vectorTile = Kernel{Name: AVX512Name, MR: 8, NR: 8, Lanes: 8, Fn: micro8x8AVX512}
		Default = vectorTile
	}
}
