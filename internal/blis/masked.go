package blis

import (
	"fmt"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/kernel"
	"ldgemm/internal/popcount"
)

// MaskedGemm computes, for every SNP pair (i of a, j of b), the four
// Section VII counts needed for gap-aware LD:
//
//	c[(i*ldc+j)*4 + kernel.MaskedValid] += popcount(cᵢ & cⱼ)
//	c[(i*ldc+j)*4 + kernel.MaskedI]     += popcount(cᵢⱼ & sᵢ)
//	c[(i*ldc+j)*4 + kernel.MaskedJ]     += popcount(cᵢⱼ & sⱼ)
//	c[(i*ldc+j)*4 + kernel.MaskedIJ]    += popcount(cᵢⱼ & sᵢ & sⱼ)
//
// It is one plain blocked rank-k update over the interleaved (value, mask)
// rows of both matrices (see driveMasked), so the value bits at gap
// positions need not be cleared first: the interleaved value row is s ∧ c.
func MaskedGemm(cfg Config, a, b *bitmat.Matrix, ka, kb *bitmat.Mask, c []uint32, ldc int) error {
	cfg, err := cfg.normalize()
	if err != nil {
		return err
	}
	if a.Samples != b.Samples {
		return fmt.Errorf("blis: sample mismatch %d vs %d", a.Samples, b.Samples)
	}
	if ka.SNPs != a.SNPs || ka.Samples != a.Samples {
		return fmt.Errorf("blis: mask A shape %dx%d vs matrix %dx%d", ka.SNPs, ka.Samples, a.SNPs, a.Samples)
	}
	if kb.SNPs != b.SNPs || kb.Samples != b.Samples {
		return fmt.Errorf("blis: mask B shape %dx%d vs matrix %dx%d", kb.SNPs, kb.Samples, b.SNPs, b.Samples)
	}
	if ldc < b.SNPs {
		return fmt.Errorf("blis: ldc %d < n %d", ldc, b.SNPs)
	}
	if a.SNPs > 0 && len(c) < ((a.SNPs-1)*ldc+b.SNPs)*4 {
		return fmt.Errorf("blis: masked C has %d entries, need %d", len(c), ((a.SNPs-1)*ldc+b.SNPs)*4)
	}
	return driveMasked(cfg, a, b, ka, kb, c, ldc, false, nil)
}

// MaskedGemmEpilogue runs MaskedGemm fused (see GemmEpilogue): the four-
// count matrix is never materialized; epi receives each finished register
// tile with cell (r, c, k) at tile[(r*ldt+c)*4+k].
func MaskedGemmEpilogue(cfg Config, a, b *bitmat.Matrix, ka, kb *bitmat.Mask, epi Epilogue) error {
	cfg, err := cfg.normalize()
	if err != nil {
		return err
	}
	if a.Samples != b.Samples {
		return fmt.Errorf("blis: sample mismatch %d vs %d", a.Samples, b.Samples)
	}
	if ka.SNPs != a.SNPs || ka.Samples != a.Samples {
		return fmt.Errorf("blis: mask A shape %dx%d vs matrix %dx%d", ka.SNPs, ka.Samples, a.SNPs, a.Samples)
	}
	if kb.SNPs != b.SNPs || kb.Samples != b.Samples {
		return fmt.Errorf("blis: mask B shape %dx%d vs matrix %dx%d", kb.SNPs, kb.Samples, b.SNPs, b.Samples)
	}
	if epi == nil {
		return errNilEpilogue
	}
	return driveMasked(cfg, a, b, ka, kb, nil, b.SNPs, false, epi)
}

// MaskedSyrk is the single-matrix gap-aware rank-k update: like Syrk it
// fills the upper triangle (j ≥ i) of the four-count matrix, skipping
// blocks and register tiles strictly below the diagonal. Cell (j, i) of
// the lower triangle is cell (i, j) with the MaskedI/MaskedJ roles
// swapped.
func MaskedSyrk(cfg Config, a *bitmat.Matrix, ka *bitmat.Mask, c []uint32, ldc int) error {
	cfg, err := cfg.normalize()
	if err != nil {
		return err
	}
	if ka.SNPs != a.SNPs || ka.Samples != a.Samples {
		return fmt.Errorf("blis: mask shape %dx%d vs matrix %dx%d", ka.SNPs, ka.Samples, a.SNPs, a.Samples)
	}
	if ldc < a.SNPs {
		return fmt.Errorf("blis: ldc %d < n %d", ldc, a.SNPs)
	}
	if a.SNPs > 0 && len(c) < ((a.SNPs-1)*ldc+a.SNPs)*4 {
		return fmt.Errorf("blis: masked C has %d entries, need %d", len(c), ((a.SNPs-1)*ldc+a.SNPs)*4)
	}
	return driveMasked(cfg, a, a, ka, ka, c, ldc, true, nil)
}

// MaskedSyrkEpilogue runs MaskedSyrk fused (see SyrkEpilogue): epi
// receives every tile of the triangle sweep; there is no count mirror, and
// epilogues that need the (j, i) view swap the MaskedI/MaskedJ roles
// themselves.
func MaskedSyrkEpilogue(cfg Config, a *bitmat.Matrix, ka *bitmat.Mask, epi Epilogue) error {
	cfg, err := cfg.normalize()
	if err != nil {
		return err
	}
	if ka.SNPs != a.SNPs || ka.Samples != a.Samples {
		return fmt.Errorf("blis: mask shape %dx%d vs matrix %dx%d", ka.SNPs, ka.Samples, a.SNPs, a.Samples)
	}
	if epi == nil {
		return errNilEpilogue
	}
	return driveMasked(cfg, a, a, ka, ka, nil, a.SNPs, true, epi)
}

// MaskedTile is the register tile, in SNPs, of the runs the fused masked
// entry points hand their epilogue: i0 is a multiple of mr and j0 of nr,
// and under SYRK a run starts at its panel's first tile with i0 < j0+nr.
// It is half the default kernel's tile, whose rows and columns are the
// interleaved matrix's two per SNP (see driveMasked).
func MaskedTile() (mr, nr int) { return kernel.Default.MR / 2, kernel.Default.NR / 2 }

// driveMasked counts the four Section VII counts as one plain rank-k
// update: the interleaved matrix of bitmat.Mask.Interleave puts SNP i on
// rows 2i (sᵢ∧cᵢ) and 2i+1 (cᵢ), so the 2×2 block of its count matrix at
// SNP pair (i, j) is the pair's four counts. The plain driver runs it with
// kernel.Default — cfg.Kernel is not consulted — on MC and NC doubled, so
// a row or column block spans the SNPs cfg asks for. The default tile is
// even (8×8 or 4×4), and row and column blocks round to it, so every run
// the driver hands over starts on an even row and column and spans whole
// SNPs; maskedRuns turns each into a four-count run.
func driveMasked(cfg Config, a, b *bitmat.Matrix, ka, kb *bitmat.Mask, c []uint32, ldc int, syrk bool, epi Epilogue) error {
	cfg.Kernel = kernel.Default
	cfg.MC, cfg.NC = 2*cfg.MC, 2*cfg.NC
	hook := &maskedRuns{strips: make([][]uint32, cfg.Threads), epi: epi, c: c, ldc: ldc}
	ia := ka.Interleave(a)
	if syrk {
		return SyrkEpilogue(cfg, ia, hook)
	}
	return GemmEpilogue(cfg, ia, kb.Interleave(b), hook)
}

// maskedRuns is the epilogue of an interleaved call: it adds each run's
// 2×2 blocks, as four-count cells, into the four-count matrix c — or, for a
// fused call (epi non-nil), into the calling worker's cleared strip, which
// it then hands to epi in SNP coordinates.
type maskedRuns struct {
	strips [][]uint32 // per worker
	epi    Epilogue
	c      []uint32
	ldc    int
}

// materializes reports a call that writes the four-count matrix c.
func (e *maskedRuns) materializes() bool { return e.epi == nil }

func (e *maskedRuns) RowRun(w int, t []uint32, ldt, i0, j0, mm, nn int) {
	rows, cols := mm/2, nn/2
	var dst []uint32
	ldd := cols
	if e.epi == nil {
		dst, ldd = e.c[(i0/2*e.ldc+j0/2)*4:], e.ldc
	} else {
		if len(e.strips[w]) < rows*cols*4 {
			e.strips[w] = make([]uint32, rows*cols*4)
		}
		dst = e.strips[w][:rows*cols*4]
		clear(dst)
	}
	for r := 0; r < rows; r++ {
		s, v := t[2*r*ldt:][:nn], t[(2*r+1)*ldt:][:nn]
		q := dst[r*ldd*4:][:cols*4]
		for len(q) >= 4 && len(s) >= 2 && len(v) >= 2 {
			q[kernel.MaskedValid] += v[1]
			q[kernel.MaskedI] += s[1]
			q[kernel.MaskedJ] += v[0]
			q[kernel.MaskedIJ] += s[0]
			q, s, v = q[4:], s[2:], v[2:]
		}
	}
	if e.epi != nil {
		e.epi.RowRun(w, dst, cols, i0/2, j0/2, rows, cols)
	}
}

// MaskedReference computes the four counts with plain loops; oracle for the
// masked driver.
func MaskedReference(a, b *bitmat.Matrix, ka, kb *bitmat.Mask, c []uint32, ldc int) error {
	if a.Samples != b.Samples {
		return fmt.Errorf("blis: sample mismatch %d vs %d", a.Samples, b.Samples)
	}
	for i := 0; i < a.SNPs; i++ {
		si, ci := a.SNP(i), ka.SNP(i)
		for j := 0; j < b.SNPs; j++ {
			sj, cj := b.SNP(j), kb.SNP(j)
			cell := c[(i*ldc+j)*4:]
			for w := range si {
				cij := ci[w] & cj[w]
				cell[kernel.MaskedValid] += popcount.Count(cij)
				cell[kernel.MaskedI] += popcount.Count(cij & si[w])
				cell[kernel.MaskedJ] += popcount.Count(cij & sj[w])
				cell[kernel.MaskedIJ] += popcount.Count(cij & si[w] & sj[w])
			}
		}
	}
	return nil
}
