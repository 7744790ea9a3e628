package blis

import (
	"fmt"
	"unsafe"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/kernel"
	"ldgemm/internal/popcount"
)

// Popcount strategy selection: which AND-count engine the register-tile
// sweep uses. The scalar strategy is the original interleaved-panel Go
// micro-kernel (one hardware POPCNT per word-pair) and stays the
// bit-exactness oracle. The vector strategy, on a host with AVX-512
// VPOPCNTDQ, is the register-tiled kernel.AVX512Name micro-kernel on the
// same interleaved panels: vectorised across the tile's eight columns, so
// it has no per-cell setup to amortise and runs at every k. Everywhere
// else — a Go kernel under the CSA or vector strategy — the batched
// family repacks panels into per-SNP kc-word runs (kernel.PackPanelRuns)
// so every register-tile cell becomes one slice AND-count, fed through the
// Harley–Seal fold-16 tree (CSA) or the SIMD dot product (AVX-512
// VPOPCNTQ or the AVX2 nibble LUT). All routes produce bit-identical
// counts; they differ only in popcounts executed per word.
//
// For the batched family dispatch keys on k: a batched cell amortizes its
// setup over kc words, so short slabs (k below CSAMinWords) run scalar
// even under Auto — the fold would drain mostly-empty accumulators.
// Fringe tiles under the batched family fall out naturally: the run
// layout counts partial tiles cell-by-cell straight into C, no scratch
// scatter needed, and zero-padded runs contribute nothing.

// PopcountStrategy selects the AND-count engine of the micro-kernel
// sweep.
type PopcountStrategy int

const (
	// PopcountAuto is the vector tile at every k when the kernel is that
	// tile (the default where the host runs it). For a Go kernel it
	// k-dispatches: the batched vector strategy when the sample dimension
	// has at least CSAMinWords words and a SIMD tier exists, the scalar
	// kernel otherwise. The zero value, so existing Configs keep working
	// and pick up the dispatch.
	PopcountAuto PopcountStrategy = iota
	// PopcountScalar forces the interleaved scalar Go micro-kernel.
	PopcountScalar
	// PopcountCSA forces the portable Harley–Seal fold-16 kernels.
	PopcountCSA
	// PopcountVector forces the SIMD kernels — the vector tile when the
	// kernel is one, the batched dot product around a Go kernel otherwise
	// — degrading to CSA when the host has no usable SIMD tier.
	PopcountVector
)

// CSAMinWords is the k-dispatch threshold of the batched family: for a Go
// kernel, Auto picks a batched strategy only when the sample dimension
// spans at least this many 64-bit words (2048 samples). Below it the
// per-cell call overhead of the batched family outweighs the folded
// popcounts. The vector tile never consults it; it decides for AVX2-only
// and portable hosts, for the masked family, and for an explicitly set Go
// kernel. A variable so Tune probes and tests can move the boundary.
var CSAMinWords = 32

// String names the strategy as accepted by ParsePopcount.
func (s PopcountStrategy) String() string {
	switch s {
	case PopcountAuto:
		return "auto"
	case PopcountScalar:
		return "scalar"
	case PopcountCSA:
		return "csa"
	case PopcountVector:
		return "vector"
	default:
		return fmt.Sprintf("popcount(%d)", int(s))
	}
}

// ParsePopcount parses a strategy name as it appears in flags and tune
// profiles.
func ParsePopcount(name string) (PopcountStrategy, error) {
	switch name {
	case "", "auto":
		return PopcountAuto, nil
	case "scalar":
		return PopcountScalar, nil
	case "csa":
		return PopcountCSA, nil
	case "vector":
		return PopcountVector, nil
	default:
		return 0, fmt.Errorf("blis: unknown popcount strategy %q (have auto, scalar, csa, vector)", name)
	}
}

// plainEngine resolves the concrete engine of a plain driver call over kw
// sample words with the (already resolved, see Config.PlainKernel) kernel
// k: a vector tile is its own engine at every k, a Go kernel goes through
// the k-dispatch.
func plainEngine(k kernel.Kernel, s PopcountStrategy, kw int) PopcountStrategy {
	if k.Lanes > 1 {
		return PopcountVector
	}
	return resolvePopcount(s, kw)
}

// interleaved reports whether the micro-kernel itself runs, on interleaved
// panels, rather than the batched family on run-packed ones.
func interleaved(k kernel.Kernel, s PopcountStrategy) bool {
	return s == PopcountScalar || k.Lanes > 1
}

// variantName is the DriverStats variant label of a (kernel, engine)
// pair — the batched family repacks panels into runs, hence the suffix.
func variantName(k kernel.Kernel, s PopcountStrategy) string {
	if interleaved(k, s) {
		return k.Name
	}
	return k.Name + "-runs"
}

// resolvePopcount maps a requested strategy to the concrete engine of the
// batched-or-scalar k-dispatch for a call over kw sample words.
func resolvePopcount(s PopcountStrategy, kw int) PopcountStrategy {
	switch s {
	case PopcountAuto:
		if kw >= CSAMinWords && popcount.HasVector() {
			return PopcountVector
		}
		return PopcountScalar
	case PopcountVector:
		if !popcount.HasVector() {
			return PopcountCSA
		}
		return PopcountVector
	default:
		return s
	}
}

// vectorTag is the vector strategy's stats name, qualified with the SIMD
// tier; built once because every driver call reports it.
var vectorTag = "vector-" + popcount.VectorName()

// strategyTag names the concrete engine for stats and /debug/vars.
func strategyTag(s PopcountStrategy) string {
	if s == PopcountVector {
		return vectorTag
	}
	return s.String()
}

// popcFold reports the words folded per popcount by the engine: the
// denominator of the popcounts-avoided counter.
func popcFold(s PopcountStrategy) int {
	switch s {
	case PopcountCSA:
		return 16
	case PopcountVector:
		if f := popcount.VectorFold(); f > 0 {
			return f
		}
		return 16 // degraded to CSA
	default:
		return 1
	}
}

// runTile counts an mm×nn tile of the batched plain family: one slice
// AND-count per cell over run-packed panels, added into C or stored over
// it. Full and partial tiles alike — the run layout needs no scratch
// scatter, and zero-padded runs contribute nothing.
func runTile(count func(a, b []uint64) int, kc int, aw, bw []uint64, c []uint32, i0, j0, mm, nn, ldc int, acc bool) {
	for i := 0; i < mm; i++ {
		ai := aw[i*kc : (i+1)*kc]
		row := c[(i0+i)*ldc+j0:][:nn]
		for j := range row {
			n := uint32(count(ai, bw[j*kc:(j+1)*kc]))
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
func runOps(k kernel.Kernel, a, b *bitmat.Matrix, s PopcountStrategy) tileOps {
	mr, nr := k.MR, k.NR
	count := popcount.AndCountVector
	if s == PopcountCSA {
		count = popcount.AndCountCSA
	}
	return tileOps{
		mr: mr, nr: nr, stride: 1, cells: 1,
		popcPerWord: 1, popcFold: popcFold(s),
		shareable: a == b && mr == nr,
		packA: func(dst []uint64, snp, count, pc, kc int) {
			kernel.PackPanelRuns(dst, a, snp, count, mr, pc, kc)
		},
		packB: func(dst []uint64, snp, count, pc, kc int) {
			kernel.PackPanelRuns(dst, b, snp, count, nr, pc, kc)
		},
		row: func(kc int, aw, bw []uint64, bstride, nt int, c []uint32, i0, j0, ldc int, acc bool, _ unsafe.Pointer, _ int) {
			for t := 0; t < nt; t++ {
				runTile(count, kc, aw, bw[t*bstride:], c, i0, j0+t*nr, mr, nr, ldc, acc)
			}
		},
		fringe: func(kc int, aw, bw []uint64, _, c []uint32, i0, j0, mm, nn, ldc int, acc bool) {
			runTile(count, kc, aw, bw, c, i0, j0, mm, nn, ldc, acc)
		},
	}
}

// maskedRunTile is runTile for the batched masked family: run-packed
// (value, mask) panels, one fused four-count slice pass per cell.
func maskedRunTile(counts func(si, ci, sj, cj []uint64) (v, nI, nJ, nIJ int), kc int, aw, bw []uint64, c []uint32, i0, j0, mm, nn, ldc int, acc bool) {
	for i := 0; i < mm; i++ {
		si := aw[i*2*kc : i*2*kc+kc]
		ci := aw[i*2*kc+kc : (i+1)*2*kc]
		for j := 0; j < nn; j++ {
			sj := bw[j*2*kc : j*2*kc+kc]
			cj := bw[j*2*kc+kc : (j+1)*2*kc]
			v, nI, nJ, nIJ := counts(si, ci, sj, cj)
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
func maskedRunOps(mk kernel.MaskedKernel, a, b *bitmat.Matrix, ka, kb *bitmat.Mask, s PopcountStrategy) tileOps {
	mr, nr := mk.MR, mk.NR
	counts := popcount.MaskedCountsVector
	if s == PopcountCSA {
		counts = popcount.MaskedCountsCSA
	}
	return tileOps{
		mr: mr, nr: nr, stride: 2, cells: 4,
		popcPerWord: 4, popcFold: popcFold(s),
		shareable: a == b && ka == kb && mr == nr,
		packA: func(dst []uint64, snp, count, pc, kc int) {
			kernel.PackMaskedPanelRuns(dst, a, ka, snp, count, mr, pc, kc)
		},
		packB: func(dst []uint64, snp, count, pc, kc int) {
			kernel.PackMaskedPanelRuns(dst, b, kb, snp, count, nr, pc, kc)
		},
		row: func(kc int, aw, bw []uint64, bstride, nt int, c []uint32, i0, j0, ldc int, acc bool, _ unsafe.Pointer, _ int) {
			for t := 0; t < nt; t++ {
				maskedRunTile(counts, kc, aw, bw[t*bstride:], c, i0, j0+t*nr, mr, nr, ldc, acc)
			}
		},
		fringe: func(kc int, aw, bw []uint64, _, c []uint32, i0, j0, mm, nn, ldc int, acc bool) {
			maskedRunTile(counts, kc, aw, bw, c, i0, j0, mm, nn, ldc, acc)
		},
	}
}
