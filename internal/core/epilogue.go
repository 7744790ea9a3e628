package core

import (
	"math"
	"unsafe"

	"ldgemm/internal/blis"
	"ldgemm/internal/bufpool"
	"ldgemm/internal/kernel"
)

// This file implements the fused LD epilogue: blis.Epilogue hooks that
// convert haplotype counts to D/r²/D′ per finished row run (one MR-row
// panel of a scheduler job, every computed column), inside the blocked
// driver's workers, while the counts are still cache-hot. It is the one
// route from counts to floats: the counts only ever exist as O(column
// block) scratch inside blis, the conversion is parallelized for free
// across the pool's workers, and the float64 outputs are written exactly
// once. A caller that wants the counts too (KeepCounts) gets each run's
// copied out beside its floats.
//
// Bit-identity with PairFromFreqs is load-bearing (golden tests and the
// ldstore precompute/serve contract both rely on it), so the hot loops
// below replicate it operation for operation; the only transformation is
// precomputing the per-SNP variance factors pᵢ(1−pᵢ) once per call, which
// is bit-safe because the product (pa(1−pa))·(pb(1−pb)) rounds each factor
// before multiplying either way.

// varTable returns v[i] = p[i]·(1−p[i]), the per-SNP variance factor of
// the r² denominator, rounded exactly as PairFromFreqs rounds it inline.
func varTable(p []float64) []float64 { return r2Table(make([]float64, len(p)), p, false) }

// invVarTable returns v[i] = 1/(p[i]·(1−p[i])), with 0 for monomorphic
// SNPs so their r² multiplies out to zero — the fast-r² trick of the
// streaming path (divides traded for multiplies; last-ulp differences
// from the exact quotient are possible).
func invVarTable(p []float64) []float64 { return r2Table(make([]float64, len(p)), p, true) }

func roundUp2(x, m int) int { return (x + m - 1) / m * m }

// measureOut is the output side the two epilogues share: the requested
// measure matrices, row-major with stride ld, and the SYRK mirror rule.
type measureOut struct {
	d, r2, dp []float64 // outputs; nil when not requested
	ld        int
	// mirror enables the SYRK lower-triangle fill: each run also writes
	// the transposed copy of the cells whose transposed tile the triangle
	// sweep never computed. mr/nr must match the driver's register tile
	// for the ownership rule to partition correctly.
	mirror bool
	mr, nr int
}

// alloc takes the measure matrices opt requests on res from bufpool.Floats:
// the epilogue assigns every cell, so what the buffers held before is never
// read.
func (o *measureOut) alloc(res *Result, opt Options) {
	meas := opt.measures()
	cells := res.SNPs * res.Cols
	if meas&MeasureD != 0 {
		res.D = bufpool.Floats.Get(cells)
		o.d = res.D
	}
	if meas&MeasureR2 != 0 {
		res.R2 = bufpool.Floats.Get(cells)
		o.r2 = res.R2
	}
	if meas&MeasureDPrime != 0 {
		res.DPrime = bufpool.Floats.Get(cells)
		o.dp = res.DPrime
	}
}

// mirrorFrom returns the first column of row gi that this row must also
// write transposed. The SYRK sweep computes exactly the tiles with
// tileRow < tileCol+nr, so the transposed home of cell (i, j) is
// uncomputed — and (i, j)'s run must write the (j, i) copy — iff
// ⌊j/mr⌋·mr ≥ (⌊i/nr⌋+1)·nr, i.e. j ≥ roundUp(i − i%nr + nr, mr). Cells
// left of that either lie in the rows of a diagonal-crossing tile (which
// computes correct below-diagonal counts as a by-product, written
// directly) or belong to another computed tile; both triangles are
// therefore written exactly once, with no write shared between concurrent
// hook invocations. The bound is past every row of gi's own MR panel, so
// a mirrored write never lands in the run being converted.
func (o *measureOut) mirrorFrom(gi int) int {
	return roundUp2(gi-gi%o.nr+o.nr, o.mr)
}

// reflect copies the mirrored cells of the finished run — rows [i0,
// i0+mm), columns [j0, j0+nn) — to their transposed homes. The walk is
// column-major: each transposed row receives its mm contiguous floats in
// one visit, NR such rows per register tile's worth of columns, as the
// per-tile walk did. Reflecting a row at a time instead would touch nn
// transposed rows — all one cache set when ld·8 is a multiple of 4 KiB —
// between two neighbouring floats of the same line.
func (o *measureOut) reflect(i0, j0, mm, nn int) {
	end := j0 + nn
	// Every row mirrors from all on; rows above the panel's last may start
	// earlier when neither of mr, nr divides the other.
	all := min(max(o.mirrorFrom(i0+mm-1), j0), end)
	for _, m := range [...][]float64{o.d, o.r2, o.dp} {
		if m == nil {
			continue
		}
		for r := 0; r < mm-1; r++ {
			gi := i0 + r
			for c := max(o.mirrorFrom(gi), j0); c < all; c++ {
				m[c*o.ld+gi] = m[gi*o.ld+c]
			}
		}
		for c := all; c < end; c++ {
			dst := m[c*o.ld+i0:][:mm]
			for r := range dst {
				dst[r] = m[(i0+r)*o.ld+c]
			}
		}
	}
}

// denseEpilogue converts plain-count row runs into the requested measures.
// rowFreqs/colFreqs (and the variance tables) are indexed by the driver's
// global coordinates, so streaming callers pass sub-slices aligned to the
// sub-matrix origin.
type denseEpilogue struct {
	measureOut
	inv                float64 // 1/Nseq
	rowFreqs, colFreqs []float64
	// rowTab/colTab are the per-SNP r² factors (see r2Table): reciprocals
	// 1/(p(1−p)) when fast, variance factors p(1−p) otherwise.
	rowTab, colTab []float64
	fast           bool     // r² via reciprocal tables (the stream default)
	counts         []uint32 // KeepCounts: each run's counts, row stride ld
}

// newDenseEpilogue allocates the requested measure matrices (and, with
// KeepCounts, the count matrix) on res and returns the epilogue that fills
// them with row stride res.Cols, r² by the exact PairFromFreqs quotient.
func newDenseEpilogue(res *Result, opt Options, mirror bool) *denseEpilogue {
	e := &denseEpilogue{
		measureOut: measureOut{ld: res.Cols, mirror: mirror},
		rowFreqs:   res.RowFreqs, colFreqs: res.ColFreqs,
	}
	k := opt.Blis.PlainKernel()
	e.mr, e.nr = k.MR, k.NR
	if res.Samples > 0 {
		e.inv = 1 / float64(res.Samples)
	}
	e.alloc(res, opt)
	if opt.Measures&KeepCounts != 0 {
		res.Counts = make([]uint32, res.SNPs*res.Cols)
		e.counts = res.Counts
	}
	if e.r2 != nil {
		e.rowTab = varTable(e.rowFreqs)
		e.colTab = e.rowTab
		shared := len(e.rowFreqs) > 0 && len(e.colFreqs) == len(e.rowFreqs) && &e.rowFreqs[0] == &e.colFreqs[0]
		if !shared {
			e.colTab = varTable(e.colFreqs)
		}
	}
	return e
}

// r2Table writes the per-SNP table the r² path reads into dst, len(p)
// long, and returns it: invVarTable's entries for the fast path, varTable's
// for the exact one.
func r2Table(dst, p []float64, fast bool) []float64 {
	dst = dst[:len(p)]
	for i, pi := range p {
		v := pi * (1 - pi)
		if fast {
			if v > 0 {
				v = 1 / v
			} else {
				v = 0
			}
		}
		dst[i] = v
	}
	return dst
}

// RowRun is the blis.Epilogue hook: one finished row run of mm ≤ MR
// rows by nn columns. Rows are converted whole, each measure in its own
// loop over contiguous operands and outputs; mirrored cells are copied
// from the converted values afterwards (see reflect). Kept counts are not
// mirrored here: Matrix mirrors the whole count matrix once the sweep is
// done.
func (e *denseEpilogue) RowRun(_ int, t []uint32, ldt, i0, j0, mm, nn int) {
	for r := 0; r < mm; r++ {
		trow := t[r*ldt:][:nn]
		e.row(trow, i0+r, j0)
		if e.counts != nil {
			copy(e.counts[(i0+r)*e.ld+j0:], trow)
		}
	}
	if e.mirror {
		e.reflect(i0, j0, mm, nn)
	}
}

// Dest is the optional half of blis.Epilogue: where RowRun will write the
// run starting at (i0, j0), so the micro-kernel can prefetch those lines
// while it counts the run. One run is one pass over one matrix only when a
// single measure with a row kernel is asked for — D or r², every streaming
// scan and the server's region path; with several measures, or D′ alone
// (a Go loop slow enough to hide its own misses), there is nothing worth
// fetching early and the answer is nil.
func (e *denseEpilogue) Dest(i0, j0 int) (unsafe.Pointer, int) {
	var out []float64
	switch {
	case e.dp != nil || e.d != nil && e.r2 != nil:
		return nil, 0
	case e.d != nil:
		out = e.d
	default:
		out = e.r2
	}
	return unsafe.Pointer(&out[i0*e.ld+j0]), e.ld * 8
}

// row converts cells [j0, j0+len(trow)) of output row gi into each
// requested measure matrix.
func (e *denseEpilogue) row(trow []uint32, gi, j0 int) {
	base := gi*e.ld + j0
	if e.d != nil {
		e.convert(MeasureD, e.d[base:][:len(trow)], trow, gi, j0)
	}
	if e.r2 != nil {
		e.convert(MeasureR2, e.r2[base:][:len(trow)], trow, gi, j0)
	}
	if e.dp != nil {
		e.convert(MeasureDPrime, e.dp[base:][:len(trow)], trow, gi, j0)
	}
}

// convert writes measure m of cells [j0, j0+len(trow)) of row gi to out,
// in one loop. D and the two r² loops are the scalar* functions below;
// each one's row kernel (rowD, rowR2Fast, rowR2Exact: epilogue_amd64.go)
// first converts as many leading cells as it can, eight per instruction and
// bit-equal per lane, and the Go loop finishes from the index it returns —
// the tail, or the whole row on a host without the kernels. D′ stays a Go
// loop: math.Min and math.Max carry NaN and ±0 rules a vector min/max does
// not share.
func (e *denseEpilogue) convert(m Measure, out []float64, trow []uint32, gi, j0 int) {
	nn := len(trow)
	out = out[:nn]
	pa, inv := e.rowFreqs[gi], e.inv
	colFreqs := e.colFreqs[j0:][:nn]
	switch m {
	case MeasureD:
		k := rowD(out, trow, colFreqs, nil, inv, pa, 0)
		scalarD(out[k:], trow[k:], colFreqs[k:], nil, inv, pa, 0)
	case MeasureR2:
		colTab, tab := e.colTab[j0:][:nn], e.rowTab[gi]
		if e.fast {
			k := rowR2Fast(out, trow, colFreqs, colTab, inv, pa, tab)
			scalarR2Fast(out[k:], trow[k:], colFreqs[k:], colTab[k:], inv, pa, tab)
		} else {
			k := rowR2Exact(out, trow, colFreqs, colTab, inv, pa, tab)
			scalarR2Exact(out[k:], trow[k:], colFreqs[k:], colTab[k:], inv, pa, tab)
		}
	default:
		for c, cnt := range trow {
			pb := colFreqs[c]
			d := float64(cnt)*inv - pa*pb
			var v, dmax float64
			if d >= 0 {
				dmax = math.Min(pa*(1-pb), pb*(1-pa))
			} else {
				dmax = math.Min(pa*pb, (1-pa)*(1-pb))
			}
			if dmax > 0 {
				v = math.Max(-1, math.Min(1, d/dmax))
			}
			out[c] = v
		}
	}
}

// The scalar loops share the row kernels' parameters: out, cnt, colFreq and
// colTab run over the same cells, pa is the row's frequency and tab its r²
// table entry (see r2Table). Each replicates PairFromFreqs's operation
// sequence for its measure, the variance product taken from the tables.

// scalarD reads no r² table.
func scalarD(out []float64, cnt []uint32, colFreq, _ []float64, inv, pa, _ float64) {
	out, colFreq = out[:len(cnt)], colFreq[:len(cnt)]
	for c, n := range cnt {
		out[c] = float64(n)*inv - pa*colFreq[c]
	}
}

// scalarR2Fast is d·d·(ivᵢ·ivⱼ) over reciprocal tables, the reciprocals
// grouped first, so the value is bit-symmetric under SNP exchange (IEEE
// multiplication commutes).
func scalarR2Fast(out []float64, cnt []uint32, colFreq, colInv []float64, inv, pa, iva float64) {
	out, colFreq, colInv = out[:len(cnt)], colFreq[:len(cnt)], colInv[:len(cnt)]
	for c, n := range cnt {
		d := float64(n)*inv - pa*colFreq[c]
		out[c] = d * d * (iva * colInv[c])
	}
}

// scalarR2Exact divides by the variance product, +0 where it is not positive.
func scalarR2Exact(out []float64, cnt []uint32, colFreq, colVar []float64, inv, pa, va float64) {
	out, colFreq, colVar = out[:len(cnt)], colFreq[:len(cnt)], colVar[:len(cnt)]
	for c, n := range cnt {
		d := float64(n)*inv - pa*colFreq[c]
		var v float64
		if den := va * colVar[c]; den > 0 {
			v = d * d / den
		}
		out[c] = v
	}
}

// maskedEpilogue converts four-count row runs (Section VII) into measures
// using per-pair effective sample sizes: PairFromFreqs over the counts
// divided by the pair's valid-sample count. The mirror write copies the
// computed floats: the measures are invariant under exchanging the SNP
// roles (the count quadruple transposes to itself with MaskedI/MaskedJ
// swapped, and PairFromFreqs is bit-symmetric under pa↔pb), so the copy
// lands the bits converting the transposed quadruple would.
type maskedEpilogue struct {
	measureOut
}

func newMaskedEpilogue(res *Result, opt Options, mirror bool) *maskedEpilogue {
	mr, nr := blis.MaskedTile()
	e := &maskedEpilogue{measureOut{ld: res.Cols, mirror: mirror, mr: mr, nr: nr}}
	e.alloc(res, opt)
	return e
}

// RowRun is the blis.Epilogue hook for the masked entry points: each C entry
// is four uint32 counts, cell (r, c, k) at t[(r*ldt+c)*4+k]. Same shape
// as denseEpilogue.RowRun: whole rows, then the mirrored cells copied.
// There is no Dest: the masked driver's runs are repacked from the
// interleaved counts, so no kernel writes next to this epilogue's output.
func (e *maskedEpilogue) RowRun(_ int, t []uint32, ldt, i0, j0, mm, nn int) {
	for r := 0; r < mm; r++ {
		quads := t[r*ldt*4:][:nn*4]
		base := (i0+r)*e.ld + j0
		var d, r2, dp []float64
		if e.d != nil {
			d = e.d[base:][:nn]
		}
		if e.r2 != nil {
			r2 = e.r2[base:][:nn]
		}
		if e.dp != nil {
			dp = e.dp[base:][:nn]
		}
		for c := 0; c < nn; c++ {
			cell := quads[c*4:][:4]
			var p Pair
			if v := cell[kernel.MaskedValid]; v > 0 {
				nv := float64(v)
				p = PairFromFreqs(
					float64(cell[kernel.MaskedIJ])/nv,
					float64(cell[kernel.MaskedI])/nv,
					float64(cell[kernel.MaskedJ])/nv,
				)
			}
			if d != nil {
				d[c] = p.D
			}
			if r2 != nil {
				r2[c] = p.R2
			}
			if dp != nil {
				dp[c] = p.DPrime
			}
		}
	}
	if e.mirror {
		e.reflect(i0, j0, mm, nn)
	}
}
