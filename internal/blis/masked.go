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
// It uses the same five-loop blocked structure as Gemm with the fused
// masked micro-kernel, packing (value, mask) word pairs. Callers must have
// applied the masks to the matrices (s = s & c); bitmat.Mask.ApplyTo does
// this.
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

// driveMasked instantiates the slab-pipelined parallel driver (parallel.go)
// for the fused masked kernel by the Go-kernel rule of dispatch.go: the
// interleaved scalar 2×2 packs (value, mask) word pairs, the batched family
// packs per-SNP runs; every C entry is the four Section VII counts either
// way.
func driveMasked(cfg Config, a, b *bitmat.Matrix, ka, kb *bitmat.Mask, c []uint32, ldc int, syrk bool, epi Epilogue) error {
	mk := kernel.Masked2x2()
	var ops tileOps
	if batched(a.Words) {
		ops = maskedRunOps(mk, a, b, ka, kb)
		stats.setVariant(mk.Name+"-runs", vectorTag)
	} else {
		ops = maskedScalarOps(mk, a, b, ka, kb)
		stats.setVariant(mk.Name, scalarTag)
	}
	return driveTiles(cfg, a.SNPs, a.Words, onePanel(tilePanel{ops: ops, n: b.SNPs, c: c, ldc: ldc, syrk: syrk, epi: epi}))
}

// maskedScalarOps is the original interleaved masked tileOps — the
// short-k dispatch target and the oracle for the batched masked family.
func maskedScalarOps(mk kernel.MaskedKernel, a, b *bitmat.Matrix, ka, kb *bitmat.Mask) tileOps {
	mr, nr := mk.MR, mk.NR
	return tileOps{
		mr: mr, nr: nr, stride: 2, cells: 4,
		popcPerWord: 4, popcFold: 1,
		shareable: a == b && ka == kb && mr == nr,
		packA: func(dst []uint64, snp, count, pc, kc int) {
			kernel.PackMaskedPanel(dst, a, ka, snp, count, mr, pc, kc)
		},
		packB: func(dst []uint64, snp, count, pc, kc int) {
			kernel.PackMaskedPanel(dst, b, kb, snp, count, nr, pc, kc)
		},
		row:    tileRow(mk.Fn, mr, nr, 4),
		fringe: tileFringe(mk.Fn, nr, 4),
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
