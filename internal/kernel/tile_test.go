package kernel

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/popcount"
)

// vectorTileOrSkip returns the AVX-512 tile, skipping where the host cannot
// run it.
func vectorTileOrSkip(t testing.TB) Kernel {
	t.Helper()
	if Default.Lanes <= 1 {
		t.Skipf("vector tile unavailable: this host's default kernel is %s", Default.Name)
	}
	return Default
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

	// The row entry: nt panels bstride words apart, 8·nt columns of C.
	const nt, bstride = 3, 8*kc + 5
	const ldr = 8*nt + 2
	rb := make([]uint64, (nt-1)*bstride+8*kc)
	rc := make([]uint32, 7*ldr+8*nt)
	for _, acc := range []bool{false, true} {
		tile.Row(kc, ap, rb, bstride, nt, rc, ldr, acc, nil, 0) // exact extents are enough
		tile.Row(kc, ap, rb, bstride, 0, nil, ldr, acc, nil, 0) // no tiles, nothing touched
	}
	rc[0], rc[ldr+8*nt-1], rc[8*nt] = 7, 7, 7
	tile.Row(0, nil, nil, bstride, nt, rc, ldr, true, nil, 0)
	if rc[0] != 7 || rc[ldr+8*nt-1] != 7 {
		t.Fatalf("kc=0 row in add mode changed C: %d %d", rc[0], rc[ldr+8*nt-1])
	}
	tile.Row(0, nil, nil, bstride, nt, rc, ldr, false, nil, 0)
	if rc[0] != 0 || rc[ldr+8*nt-1] != 0 || rc[8*nt] != 7 {
		t.Fatalf("kc=0 row in store mode left C = %d %d, gap cell %d", rc[0], rc[ldr+8*nt-1], rc[8*nt])
	}

	for name, call := range map[string]func(){
		"short A":      func() { tile.Fn(kc, ap[:8*kc-1], bp, c, ldc) },
		"short B":      func() { tile.Fn(kc, ap, bp[:8*kc-1], c, ldc) },
		"short C":      func() { tile.Fn(kc, ap, bp, c[:7*ldc+7], ldc) },
		"negative ldc": func() { tile.Fn(kc, ap, bp, c, -1) },

		"row short A":          func() { tile.Row(kc, ap[:8*kc-1], rb, bstride, nt, rc, ldr, true, nil, 0) },
		"row short last B":     func() { tile.Row(kc, ap, rb[:len(rb)-1], bstride, nt, rc, ldr, true, nil, 0) },
		"row short C":          func() { tile.Row(kc, ap, rb, bstride, nt, rc[:len(rc)-1], ldr, false, nil, 0) },
		"row negative ldc":     func() { tile.Row(kc, ap, rb, bstride, nt, rc, -1, true, nil, 0) },
		"row negative bstride": func() { tile.Row(kc, ap, rb, -1, nt, rc, ldr, true, nil, 0) },
		"row negative hint row distance": func() {
			tile.Row(kc, ap, rb, bstride, nt, rc, ldr, true, unsafe.Pointer(&rc[0]), -8)
		},
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

// TestVectorTileRowMatchesGeneric is the row entry's oracle table: against
// Generic(8,8) looped over the tiles, exact uint32 equality over the whole
// C array — which is wider than the 8 × 8nt destination on every side, so
// the canary cells around it must come back untouched. Store mode runs over
// a destination full of 0xdeadbeef and must equal the oracle on a zeroed
// one; add mode runs over cells within 2·64·kc of 2³² and must wrap exactly
// as the Go kernels do. Every case runs without a destination hint and with
// one — on a cache line, 8 and 56 bytes off it, rows a page apart and all
// on one line (distance 0): the hint is prefetched from and nothing else,
// so C must be identical and the hinted buffer, canaries throughout, must
// come back as it went in.
func TestVectorTileRowMatchesGeneric(t *testing.T) {
	tile := vectorTileOrSkip(t)
	oracle := Generic(8, 8)
	rng := rand.New(rand.NewSource(23))
	const rowsAbove, colsLeft, colsRight, rowsBelow = 2, 3, 5, 1

	const page = 4096
	hinted := make([]float64, (7*page+64*64+2*64)/8) // 8 rows a page apart, 64 tiles, slack to align
	for i := range hinted {
		hinted[i] = float64(i) + 0.5
	}
	line := int((64 - uintptr(unsafe.Pointer(&hinted[0]))%64) % 64 / 8) // first cell on a cache line
	type hint struct {
		p        unsafe.Pointer
		rowBytes int
	}
	hints := []hint{{nil, 0}}
	for _, off := range []int{0, 8, 56} {
		for _, rowBytes := range []int{0, page} {
			hints = append(hints, hint{unsafe.Pointer(&hinted[line+off/8]), rowBytes})
		}
	}

	for _, kc := range []int{1, 7, 8, 33, 256} {
		for _, nt := range []int{1, 2, 5, 64} {
			for _, bstride := range []int{8 * kc, 8*kc + 24} {
				ap := make([]uint64, 8*kc)
				bp := make([]uint64, (nt-1)*bstride+8*kc)
				for i := range ap {
					ap[i] = rng.Uint64()
				}
				for i := range bp {
					bp[i] = rng.Uint64()
				}
				ldc := colsLeft + 8*nt + colsRight
				org := rowsAbove*ldc + colsLeft // the destination's first cell
				inside := func(i int) bool {
					r, col := i/ldc-rowsAbove, i%ldc-colsLeft
					return r >= 0 && r < 8 && col >= 0 && col < 8*nt
				}
				for _, acc := range []bool{false, true} {
					want := make([]uint32, (rowsAbove+8+rowsBelow)*ldc)
					for i := range want {
						want[i] = rng.Uint32() // canaries, and add mode's start
						if acc && inside(i) {
							want[i] = -uint32(rng.Intn(2*64*kc) + 1)
						}
					}
					start := append([]uint32(nil), want...)
					for i := range want {
						if !acc && inside(i) {
							want[i], start[i] = 0, 0xdeadbeef
						}
					}
					for tl := 0; tl < nt; tl++ {
						oracle.Fn(kc, ap, bp[tl*bstride:], want[org+8*tl:], ldc)
					}
					for _, h := range hints {
						got := append([]uint32(nil), start...)
						tile.Row(kc, ap, bp, bstride, nt, got[org:], ldc, acc, h.p, h.rowBytes)
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("kc=%d nt=%d bstride=%d acc=%v hint=%v: c[%d] (inside=%v) = %#x, want %#x",
									kc, nt, bstride, acc, h, i, inside(i), got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
	for i, v := range hinted {
		if v != float64(i)+0.5 {
			t.Fatalf("the hinted buffer was written: cell %d = %v", i, v)
		}
	}
}

// TestVectorTileRowEqualsFn holds every registered kernel that has a row
// entry to the rule on Kernel.Row: at nt = 1 in add mode it is Fn, bit for
// bit — the driver calls whichever is set, so the two may never drift.
func TestVectorTileRowEqualsFn(t *testing.T) {
	kernels := append(append([]Kernel(nil), Fixed...), Default)
	rng := rand.New(rand.NewSource(29))
	checked := 0
	for _, k := range kernels {
		if k.Row == nil {
			continue
		}
		checked++
		for _, kc := range []int{1, 8, 33, 256} {
			ap, bp := make([]uint64, k.MR*kc), make([]uint64, k.NR*kc)
			for i := range ap {
				ap[i] = rng.Uint64()
			}
			for i := range bp {
				bp[i] = rng.Uint64()
			}
			ldc := k.NR + 3
			want := make([]uint32, k.MR*ldc)
			for i := range want {
				want[i] = rng.Uint32()
			}
			got := append([]uint32(nil), want...)
			k.Fn(kc, ap, bp, want, ldc)
			k.Row(kc, ap, bp, 0, 1, got, ldc, true, nil, 0)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s kc=%d: Row c[%d] = %d, Fn %d", k.Name, kc, i, got[i], want[i])
				}
			}
		}
	}
	if checked == 0 {
		t.Skip("no registered kernel has a row entry on this host")
	}
}

// TestVectorTileGating pins the registry: the tile is the default exactly
// where the host runs VPOPCNTQ on zmm registers; with it off (as on a host
// without VPOPCNTDQ) the default is the portable 4x4.
func TestVectorTileGating(t *testing.T) {
	host := Default
	if popcount.HasAVX512VPOPCNTDQ() != (Default.Lanes > 1) {
		t.Fatalf("host has VPOPCNTDQ = %v but Default = %q", popcount.HasAVX512VPOPCNTDQ(), Default.Name)
	}
	if Default.Lanes > 1 && (Default.Name != AVX512Name || Default.MR != 8 || Default.NR != 8 || Default.Lanes != 8) {
		t.Fatalf("tile available but Default = %+v", Default)
	}
	restore := DisableVectorTileForTest()
	if Default.Name != Portable.Name || Default.Lanes != 0 {
		t.Fatalf("Default with the tile off = %+v", Default)
	}
	restore()
	if Default.Name != host.Name {
		t.Fatalf("restore left Default = %q, was %q", Default.Name, host.Name)
	}
}

// BenchmarkMicroKernel times one register tile per call, in Gtriples/s
// (AND+POPCNT+ADD per cell and word) and ns per tile. At kc = 8, 32 and 256
// words it puts the three engines the driver chooses between side by side:
// the portable 4x4, the per-cell vector route (4x4-runs: one
// popcount.AndCountVector dot product per cell over run-packed panels, what
// Auto ran at k ≥ CSAMinWords before the tile and still runs on AVX2-only
// hosts) and the AVX-512 tile. The 1x1 dot product runs at kc = 256 only,
// as the shape ablation's per-pair row. Last, the tile's row entry at kc = 8 and 256: nt = 1,
// 16 and 256 tiles per call, storing and adding — ns/tile at nt = 1 against
// the per-tile Fn line is what a call costs, and against nt = 256 what the
// driver's one call per row of tiles leaves of it — and, at kc = 8 and 32,
// the same row with and without a destination hint.
func BenchmarkMicroKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type packer func(dst []uint64, m *bitmat.Matrix, snp, count, rr, pc, kc int)
	report := func(b *testing.B, tiles, triples int) {
		b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N*tiles), "ns/tile")
		b.ReportMetric(float64(b.N*triples)/b.Elapsed().Seconds()/1e9, "Gtriples/s")
	}
	run := func(name string, mr, nr, kc int, pack packer, fn Func) {
		ap, bp := make([]uint64, kc*mr), make([]uint64, kc*nr)
		pack(ap, randomMatrix(rng, mr, kc*64), 0, mr, mr, 0, kc)
		pack(bp, randomMatrix(rng, nr, kc*64), 0, nr, nr, 0, kc)
		c := make([]uint32, mr*nr)
		b.Run(fmt.Sprintf("%s/kc=%d", name, kc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn(kc, ap, bp, c, nr)
			}
			report(b, 1, kc*mr*nr)
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
	tile := Default
	for _, kc := range []int{8, 32, 256} {
		run(Portable.Name, Portable.MR, Portable.NR, kc, PackPanel, Portable.Fn)
		run(Portable.Name+"-runs", Portable.MR, Portable.NR, kc, PackPanelRuns, perCell)
		if tile.Lanes > 1 {
			run(tile.Name, tile.MR, tile.NR, kc, PackPanel, tile.Fn)
		}
	}
	for _, k := range Fixed {
		if k.Name != Portable.Name {
			run(k.Name, k.MR, k.NR, 256, PackPanel, k.Fn)
		}
	}
	if tile.Lanes <= 1 {
		return
	}
	mr, nr := tile.MR, tile.NR
	for _, kc := range []int{8, 256} {
		for _, nt := range []int{1, 16, 256} {
			ap, bp := make([]uint64, kc*mr), make([]uint64, nt*kc*nr)
			PackPanel(ap, randomMatrix(rng, mr, kc*64), 0, mr, mr, 0, kc)
			cols := randomMatrix(rng, nt*nr, kc*64)
			for t := 0; t < nt; t++ {
				PackPanel(bp[t*kc*nr:], cols, t*nr, nr, nr, 0, kc)
			}
			c := make([]uint32, mr*nt*nr)
			for _, acc := range []bool{false, true} {
				mode := map[bool]string{false: "store", true: "add"}[acc]
				b.Run(fmt.Sprintf("%s-row/kc=%d/nt=%d/%s", tile.Name, kc, nt, mode), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						tile.Row(kc, ap, bp, kc*nr, nt, c, nt*nr, acc, nil, 0)
					}
					report(b, nt, nt*kc*mr*nr)
				})
			}
		}
	}
	// The destination hint, at the depths where a tile is short enough for
	// eight prefetches to show: 256 tiles per call, storing, without a hint
	// and with one walking a 32 MB float64 buffer the way the driver's
	// panels walk a stripe (eight rows of 256 tiles' floats per call, the
	// next eight on the next call). Nothing ever writes the buffer, so the
	// difference is what issuing the prefetches costs the counting loop
	// when the lines come from L3 or nearer.
	const nt = 256
	out := make([]float64, 32<<20/8)
	rowBytes := nt * nr * 8
	for _, kc := range []int{8, 32} {
		ap, bp := make([]uint64, kc*mr), make([]uint64, nt*kc*nr)
		PackPanel(ap, randomMatrix(rng, mr, kc*64), 0, mr, mr, 0, kc)
		cols := randomMatrix(rng, nt*nr, kc*64)
		for t := 0; t < nt; t++ {
			PackPanel(bp[t*kc*nr:], cols, t*nr, nr, nr, 0, kc)
		}
		c := make([]uint32, mr*nt*nr)
		for _, hinted := range []bool{false, true} {
			name := map[bool]string{false: "none", true: "32MB"}[hinted]
			b.Run(fmt.Sprintf("%s-row/kc=%d/nt=%d/hint=%s", tile.Name, kc, nt, name), func(b *testing.B) {
				panels := len(out) * 8 / (mr * rowBytes)
				for i := 0; i < b.N; i++ {
					var pf unsafe.Pointer
					if hinted {
						pf = unsafe.Pointer(&out[i%panels*mr*rowBytes/8])
					}
					tile.Row(kc, ap, bp, kc*nr, nt, c, nt*nr, false, pf, rowBytes)
				}
				report(b, nt, nt*kc*mr*nr)
			})
		}
	}
}
