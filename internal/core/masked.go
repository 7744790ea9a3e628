package core

import (
	"fmt"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/kernel"
	"ldgemm/internal/popcount"
)

// MaskedPairLD computes gap-aware LD between SNPs i and j of g directly
// from the Section VII inner products: allele and haplotype frequencies
// are taken over the samples valid at *both* SNPs (cᵢⱼ = cᵢ & cⱼ).
func MaskedPairLD(g *bitmat.Matrix, k *bitmat.Mask, i, j int) Pair {
	si, sj := g.SNP(i), g.SNP(j)
	ci, cj := k.SNP(i), k.SNP(j)
	var nValid, nI, nJ, nIJ uint32
	for w := range si {
		cij := ci[w] & cj[w]
		nValid += popcount.Count(cij)
		nI += popcount.Count(cij & si[w])
		nJ += popcount.Count(cij & sj[w])
		nIJ += popcount.Count(cij & si[w] & sj[w])
	}
	if nValid == 0 {
		return Pair{}
	}
	n := float64(nValid)
	return PairFromFreqs(float64(nIJ)/n, float64(nI)/n, float64(nJ)/n)
}

// MaskedMatrix computes gap-aware all-pairs LD within one genomic matrix
// using the fused masked blocked driver. The mask is applied to a copy of
// the matrix first (enforcing s = s & c), so callers may pass matrices
// whose gap positions carry arbitrary bits. Both triangles are filled.
func MaskedMatrix(g *bitmat.Matrix, mask *bitmat.Mask, opt Options) (*Result, error) {
	if mask.SNPs != g.SNPs || mask.Samples != g.Samples {
		return nil, fmt.Errorf("core: mask %dx%d does not match matrix %dx%d",
			mask.SNPs, mask.Samples, g.SNPs, g.Samples)
	}
	gm := g.Clone()
	if err := mask.ApplyTo(gm); err != nil {
		return nil, err
	}
	n := g.SNPs
	res := &Result{SNPs: n, Cols: n, Samples: g.Samples}
	res.RowFreqs = make([]float64, n)
	for i := range res.RowFreqs {
		v := mask.ValidCount(i)
		if v > 0 {
			res.RowFreqs[i] = float64(gm.DerivedCount(i)) / float64(v)
		}
	}
	res.ColFreqs = res.RowFreqs
	if opt.fused() {
		// Fused: no n²·16-byte quad matrix, no count mirror — each tile
		// converts its four-count cells in place and writes the (bit-
		// symmetric) float mirrors it owns.
		e := newMaskedEpilogue(res, opt, true)
		if err := blis.MaskedSyrkEpilogue(opt.blisCfg(), gm, mask, e); err != nil {
			return nil, err
		}
		return res, nil
	}
	quad := make([]uint32, n*n*4)
	if err := blis.MaskedSyrk(opt.blisCfg(), gm, mask, quad, n); err != nil {
		return nil, err
	}
	blis.MirrorMasked(quad, n, n)
	fillMaskedMeasures(res, quad, opt)
	return res, nil
}

// fillMaskedMeasures converts the four-count matrix into the requested
// statistics using per-pair effective sample sizes.
func fillMaskedMeasures(res *Result, quad []uint32, opt Options) {
	meas := opt.measures()
	m, n := res.SNPs, res.Cols
	if meas&MeasureD != 0 {
		res.D = make([]float64, m*n)
	}
	if meas&MeasureR2 != 0 {
		res.R2 = make([]float64, m*n)
	}
	if meas&MeasureDPrime != 0 {
		res.DPrime = make([]float64, m*n)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			idx := i*n + j
			cell := quad[idx*4 : idx*4+4]
			var p Pair
			if v := cell[kernel.MaskedValid]; v > 0 {
				nv := float64(v)
				p = PairFromFreqs(
					float64(cell[kernel.MaskedIJ])/nv,
					float64(cell[kernel.MaskedI])/nv,
					float64(cell[kernel.MaskedJ])/nv,
				)
			}
			if res.D != nil {
				res.D[idx] = p.D
			}
			if res.R2 != nil {
				res.R2[idx] = p.R2
			}
			if res.DPrime != nil {
				res.DPrime[idx] = p.DPrime
			}
		}
	}
}
