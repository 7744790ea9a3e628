package core

import (
	"fmt"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
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
// using the fused masked blocked driver, which counts s ∧ c, so callers may
// pass matrices whose gap positions carry arbitrary bits; g is not
// modified. Both triangles are filled.
// KeepCounts returns no counts here: there is no dense four-count matrix.
func MaskedMatrix(g *bitmat.Matrix, mask *bitmat.Mask, opt Options) (*Result, error) {
	if mask.SNPs != g.SNPs || mask.Samples != g.Samples {
		return nil, fmt.Errorf("core: mask %dx%d does not match matrix %dx%d",
			mask.SNPs, mask.Samples, g.SNPs, g.Samples)
	}
	n := g.SNPs
	res := &Result{SNPs: n, Cols: n, Samples: g.Samples}
	res.RowFreqs = make([]float64, n)
	for i := range res.RowFreqs {
		v := mask.ValidCount(i)
		if v > 0 {
			res.RowFreqs[i] = float64(popcount.AndCount(g.SNP(i), mask.SNP(i))) / float64(v)
		}
	}
	res.ColFreqs = res.RowFreqs
	// No n²·16-byte quad matrix, no count mirror: each run converts its
	// four-count cells in place and writes the (bit-symmetric) float
	// mirrors it owns.
	if err := blis.MaskedSyrkEpilogue(opt.Blis, g, mask, newMaskedEpilogue(res, opt, true)); err != nil {
		return nil, err
	}
	return res, nil
}
