package kernel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/popcount"
)

// vectorTileOrSkip returns the AVX-512 tile, skipping where the host cannot
// run it.
func vectorTileOrSkip(t testing.TB) Kernel {
	t.Helper()
	k, err := ByName(AVX512Name)
	if err != nil {
		t.Skipf("vector tile unavailable: %v", err)
	}
	return k
}

// TestVectorTileMatchesGeneric is the tile's oracle table: exact uint32
// equality with Generic(8,8) over the whole C array (so the gap columns of
// a wide ldc are checked untouched), across K depths around the loop's
// edges, C strides, C contents that wrap, degenerate panels, and panels at
// every word offset of their backing array (the loads are unaligned).
func TestVectorTileMatchesGeneric(t *testing.T) {
	tile := vectorTileOrSkip(t)
	oracle := Generic(8, 8)
	rng := rand.New(rand.NewSource(17))

	fills := []struct {
		name string
		fill func(p []uint64)
	}{
		{"random", func(p []uint64) {
			for i := range p {
				p[i] = rng.Uint64()
			}
		}},
		{"ones", func(p []uint64) {
			for i := range p {
				p[i] = ^uint64(0)
			}
		}},
		{"zeros", func(p []uint64) { clear(p) }},
	}
	for _, kc := range []int{1, 2, 7, 8, 9, 32, 255, 256, 4096} {
		for _, ldc := range []int{8, 11, 1000} {
			for _, f := range fills {
				for off := 0; off < 8; off++ {
					if kc == 4096 && off > 1 {
						break // the offsets are covered at every smaller depth
					}
					ap := make([]uint64, off+8*kc)[off:]
					bp := make([]uint64, (7-off)+8*kc)[7-off:]
					f.fill(ap)
					f.fill(bp)
					for _, nearWrap := range []bool{false, true} {
						want := make([]uint32, 7*ldc+8)
						for i := range want {
							want[i] = rng.Uint32()
							if nearWrap {
								// A cell gains at most 64·kc, so these all wrap
								// under the all-ones panels and mostly under
								// random ones.
								want[i] = -uint32(rng.Intn(2*64*kc) + 1)
							}
						}
						got := append([]uint32(nil), want...)
						oracle.Fn(kc, ap, bp, want, ldc)
						tile.Fn(kc, ap, bp, got, ldc)
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("kc=%d ldc=%d %s off=%d wrap=%v: c[%d] = %d, want %d",
									kc, ldc, f.name, off, nearWrap, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestVectorTileChecksExtents pins the wrapper's contract: the assembly
// never sees a panel or a C shorter than what it reads and writes, and a
// zero-depth call adds nothing, as for the Go kernels.
func TestVectorTileChecksExtents(t *testing.T) {
	tile := vectorTileOrSkip(t)
	const kc, ldc = 3, 9
	ap, bp := make([]uint64, 8*kc), make([]uint64, 8*kc)
	c := make([]uint32, 7*ldc+8)
	tile.Fn(kc, ap, bp, c, ldc) // exact extents are enough

	c[0] = 7
	tile.Fn(0, nil, nil, c, ldc)
	if c[0] != 7 {
		t.Fatalf("kc=0 changed C: %d", c[0])
	}
	for name, call := range map[string]func(){
		"short A":      func() { tile.Fn(kc, ap[:8*kc-1], bp, c, ldc) },
		"short B":      func() { tile.Fn(kc, ap, bp[:8*kc-1], c, ldc) },
		"short C":      func() { tile.Fn(kc, ap, bp, c[:7*ldc+7], ldc) },
		"negative ldc": func() { tile.Fn(kc, ap, bp, c, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// TestVectorTileGating pins the registry: where the tile runs it is the
// default; with it off (as on a host without VPOPCNTDQ) the default is the
// portable 4x4 and asking for the tile by name errors, naming the feature.
func TestVectorTileGating(t *testing.T) {
	host := Default
	if k, err := ByName(AVX512Name); err == nil {
		if Default.Name != AVX512Name || k.MR != 8 || k.NR != 8 || k.Lanes != 8 {
			t.Fatalf("tile available but Default = %q, tile = %+v", Default.Name, k)
		}
	}
	restore := DisableVectorTileForTest()
	if Default.Name != Portable.Name || Default.Lanes != 0 {
		t.Fatalf("Default with the tile off = %+v", Default)
	}
	if _, err := ByName(AVX512Name); err == nil || !strings.Contains(err.Error(), "AVX512_VPOPCNTDQ") {
		t.Fatalf("ByName(%s) with the tile off: %v", AVX512Name, err)
	}
	restore()
	if Default.Name != host.Name {
		t.Fatalf("restore left Default = %q, was %q", Default.Name, host.Name)
	}
}

// BenchmarkMicroKernel times one register tile per call, in Gtriples/s
// (AND+POPCNT+ADD per cell and word). At kc = 8, 32 and 256 words it puts
// the three engines the driver chooses between side by side: the portable
// 4x4, the per-cell vector route (4x4-runs: one popcount.AndCountVector
// dot product per cell over run-packed panels, what Auto ran at k ≥
// CSAMinWords before the tile and still runs on AVX2-only hosts) and the
// AVX-512 tile. The other Go shapes run at kc = 256 only, as the shape
// ablation.
func BenchmarkMicroKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type packer func(dst []uint64, m *bitmat.Matrix, snp, count, rr, pc, kc int)
	run := func(name string, mr, nr, kc int, pack packer, fn Func) {
		ap, bp := make([]uint64, kc*mr), make([]uint64, kc*nr)
		pack(ap, randomMatrix(rng, mr, kc*64), 0, mr, mr, 0, kc)
		pack(bp, randomMatrix(rng, nr, kc*64), 0, nr, nr, 0, kc)
		c := make([]uint32, mr*nr)
		b.Run(fmt.Sprintf("%s/kc=%d", name, kc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn(kc, ap, bp, c, nr)
			}
			b.ReportMetric(float64(b.N)*float64(kc*mr*nr)/b.Elapsed().Seconds()/1e9, "Gtriples/s")
		})
	}
	perCell := func(kc int, ap, bp []uint64, c []uint32, ldc int) {
		for i := 0; i < Portable.MR; i++ {
			ai := ap[i*kc : (i+1)*kc]
			for j := 0; j < Portable.NR; j++ {
				c[i*ldc+j] += uint32(popcount.AndCountVector(ai, bp[j*kc:(j+1)*kc]))
			}
		}
	}
	for _, kc := range []int{8, 32, 256} {
		run(Portable.Name, Portable.MR, Portable.NR, kc, PackPanel, Portable.Fn)
		run(Portable.Name+"-runs", Portable.MR, Portable.NR, kc, PackPanelRuns, perCell)
		if tile, err := ByName(AVX512Name); err == nil {
			run(tile.Name, tile.MR, tile.NR, kc, PackPanel, tile.Fn)
		}
	}
	for _, k := range Fixed {
		if k.Name != Portable.Name {
			run(k.Name, k.MR, k.NR, 256, PackPanel, k.Fn)
		}
	}
}
