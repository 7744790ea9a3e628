package blis

import (
	"unsafe"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/kernel"
	"ldgemm/internal/popcount"
)

// The route of a driver call is a function of the kernel, the sample words
// kw and the host — nothing else, and nothing a caller sets:
//
//   - a vector tile (Lanes > 1, the default where the host runs it) counts
//     on interleaved panels at every k, with its own vector popcount;
//   - a Go kernel counts on interleaved panels with one hardware POPCNT per
//     word-pair below CSAMinWords words, or where the host has no SIMD
//     tier; from CSAMinWords on, on a SIMD host, the batched family repacks
//     panels into per-SNP kc-word runs (kernel.PackPanelRuns) so every
//     register-tile cell is one popcount.AndCountVector dot product;
//   - the masked driver follows the Go-kernel rule with its 2×2 tile and
//     popcount.MaskedCountsVector.
//
// All routes produce bit-identical counts; they differ only in popcounts
// executed per word. Fringe tiles under the batched family fall out
// naturally: the run layout counts partial tiles cell-by-cell straight into
// C, no scratch scatter needed, and zero-padded runs contribute nothing.

// CSAMinWords is the k-dispatch threshold of the batched family: a Go
// kernel or the masked driver runs batched only when the sample dimension
// spans at least this many 64-bit words (2048 samples) and the host has a
// SIMD tier. Below it the per-cell call of the batched family costs more
// than the popcounts it folds. The vector tile never consults it.
const CSAMinWords = 32

// batched reports whether a call over kw sample words runs the batched
// run-packed family rather than a Go kernel's own interleaved loop.
func batched(kw int) bool { return kw >= CSAMinWords && popcount.HasVector() }

// Engine tags for stats and /debug/vars: the vector one is qualified with
// the SIMD tier and built once, because every driver call reports it.
var (
	vectorTag = "vector-" + popcount.VectorName()
	scalarTag = "scalar"
)

// plainRoute resolves what the plain driver runs for the (resolved, see
// Config.PlainKernel) kernel k over kw sample words: whether the batched
// family replaces the kernel's own loop, and the DriverStats variant and
// engine labels of that choice — the batched family's variant carries a
// "-runs" suffix for its panel layout.
func plainRoute(k kernel.Kernel, kw int) (runs bool, variant, engine string) {
	switch {
	case k.Lanes > 1:
		return false, k.Name, vectorTag
	case batched(kw):
		return true, k.Name + "-runs", vectorTag
	default:
		return false, k.Name, scalarTag
	}
}

// runTile counts an mm×nn tile of the batched plain family: one SIMD slice
// AND-count per cell over run-packed panels, added into C or stored over
// it. Full and partial tiles alike — the run layout needs no scratch
// scatter, and zero-padded runs contribute nothing.
func runTile(kc int, aw, bw []uint64, c []uint32, i0, j0, mm, nn, ldc int, acc bool) {
	for i := 0; i < mm; i++ {
		ai := aw[i*kc : (i+1)*kc]
		row := c[(i0+i)*ldc+j0:][:nn]
		for j := range row {
			n := uint32(popcount.AndCountVector(ai, bw[j*kc:(j+1)*kc]))
			if acc {
				n += row[j]
			}
			row[j] = n
		}
	}
}

// runOps builds the tileOps of the batched plain kernel family: run-
// packed panels, one slice AND-count per register-tile cell. The panel
// footprint (kc·rr words) matches the interleaved layout, so the blocked
// driver's slab sizing and SYRK pack sharing apply unchanged.
func runOps(k kernel.Kernel, a, b *bitmat.Matrix) tileOps {
	mr, nr := k.MR, k.NR
	return tileOps{
		mr: mr, nr: nr, stride: 1, cells: 1,
		popcPerWord: 1, popcFold: popcount.VectorFold(),
		shareable: a == b && mr == nr,
		packA: func(dst []uint64, snp, count, pc, kc int) {
			kernel.PackPanelRuns(dst, a, snp, count, mr, pc, kc)
		},
		packB: func(dst []uint64, snp, count, pc, kc int) {
			kernel.PackPanelRuns(dst, b, snp, count, nr, pc, kc)
		},
		row: func(kc int, aw, bw []uint64, bstride, nt int, c []uint32, i0, j0, ldc int, acc bool, _ unsafe.Pointer, _ int) {
			for t := 0; t < nt; t++ {
				runTile(kc, aw, bw[t*bstride:], c, i0, j0+t*nr, mr, nr, ldc, acc)
			}
		},
		fringe: func(kc int, aw, bw []uint64, _, c []uint32, i0, j0, mm, nn, ldc int, acc bool) {
			runTile(kc, aw, bw, c, i0, j0, mm, nn, ldc, acc)
		},
	}
}

// maskedRunTile is runTile for the batched masked family: run-packed
// (value, mask) panels, one fused four-count slice pass per cell.
func maskedRunTile(kc int, aw, bw []uint64, c []uint32, i0, j0, mm, nn, ldc int, acc bool) {
	for i := 0; i < mm; i++ {
		si := aw[i*2*kc : i*2*kc+kc]
		ci := aw[i*2*kc+kc : (i+1)*2*kc]
		for j := 0; j < nn; j++ {
			sj := bw[j*2*kc : j*2*kc+kc]
			cj := bw[j*2*kc+kc : (j+1)*2*kc]
			v, nI, nJ, nIJ := popcount.MaskedCountsVector(si, ci, sj, cj)
			cell := c[((i0+i)*ldc+j0+j)*4:][:4]
			if !acc {
				clear(cell)
			}
			cell[kernel.MaskedValid] += uint32(v)
			cell[kernel.MaskedI] += uint32(nI)
			cell[kernel.MaskedJ] += uint32(nJ)
			cell[kernel.MaskedIJ] += uint32(nIJ)
		}
	}
}

// maskedRunOps is the batched masked family. The register tile stays the
// masked driver's 2×2 so scalar and batched runs are geometrically
// identical.
func maskedRunOps(mk kernel.MaskedKernel, a, b *bitmat.Matrix, ka, kb *bitmat.Mask) tileOps {
	mr, nr := mk.MR, mk.NR
	return tileOps{
		mr: mr, nr: nr, stride: 2, cells: 4,
		popcPerWord: 4, popcFold: popcount.VectorFold(),
		shareable: a == b && ka == kb && mr == nr,
		packA: func(dst []uint64, snp, count, pc, kc int) {
			kernel.PackMaskedPanelRuns(dst, a, ka, snp, count, mr, pc, kc)
		},
		packB: func(dst []uint64, snp, count, pc, kc int) {
			kernel.PackMaskedPanelRuns(dst, b, kb, snp, count, nr, pc, kc)
		},
		row: func(kc int, aw, bw []uint64, bstride, nt int, c []uint32, i0, j0, ldc int, acc bool, _ unsafe.Pointer, _ int) {
			for t := 0; t < nt; t++ {
				maskedRunTile(kc, aw, bw[t*bstride:], c, i0, j0+t*nr, mr, nr, ldc, acc)
			}
		},
		fringe: func(kc int, aw, bw []uint64, _, c []uint32, i0, j0, mm, nn, ldc int, acc bool) {
			maskedRunTile(kc, aw, bw, c, i0, j0, mm, nn, ldc, acc)
		},
	}
}
