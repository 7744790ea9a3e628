package core

import (
	"fmt"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/popcount"
)

// Higher-order LD (the specialized use case of Section VIII, after
// Slatkin 2008): the three-locus disequilibrium coefficient measures
// allelic association beyond what the three pairwise coefficients explain.
// Using Bennett's decomposition,
//
//	D_ijk = P(ABC) − pᵢ·D_jk − pⱼ·D_ik − p_k·D_ij − pᵢ·pⱼ·p_k
//
// where P(ABC) is the triple haplotype frequency. The bit-parallel kernel
// extends directly: POPCNT(sᵢ & sⱼ & s_k), two ANDs and one POPCNT per
// word, with the middle term's AND shared across the k loop.

// Triple holds the statistics of one SNP triple.
type Triple struct {
	I, J, K int
	// PABC is the triple haplotype frequency.
	PABC float64
	// D3 is the three-locus disequilibrium coefficient.
	D3 float64
}

// TripleLD computes the three-locus disequilibrium for one SNP triple.
func TripleLD(g *bitmat.Matrix, i, j, k int) Triple {
	if g.Samples == 0 {
		return Triple{I: i, J: j, K: k}
	}
	si, sj, sk := g.SNP(i), g.SNP(j), g.SNP(k)
	var cIJ, cIK, cJK, cIJK uint32
	for w := range si {
		ij := si[w] & sj[w]
		cIJ += popcount.Count(ij)
		cIK += popcount.Count(si[w] & sk[w])
		cJK += popcount.Count(sj[w] & sk[w])
		cIJK += popcount.Count(ij & sk[w])
	}
	n := float64(g.Samples)
	pi, pj, pk := g.AlleleFrequency(i), g.AlleleFrequency(j), g.AlleleFrequency(k)
	dij := float64(cIJ)/n - pi*pj
	dik := float64(cIK)/n - pi*pk
	djk := float64(cJK)/n - pj*pk
	pabc := float64(cIJK) / n
	return Triple{
		I: i, J: j, K: k,
		PABC: pabc,
		D3:   pabc - pi*djk - pj*dik - pk*dij - pi*pj*pk,
	}
}

// TripleScanOptions configures a windowed third-order scan.
type TripleScanOptions struct {
	// MaxSpan restricts triples to k − i ≤ MaxSpan (default 20): the
	// O(n·MaxSpan²) windowed scan that makes third-order LD tractable.
	MaxSpan int
	// MinAbsD3 drops triples below this |D₃| from the result (default 0:
	// keep everything).
	MinAbsD3 float64
}

func (o TripleScanOptions) normalize() (TripleScanOptions, error) {
	if o.MaxSpan == 0 {
		o.MaxSpan = 20
	}
	if o.MaxSpan < 2 {
		return o, fmt.Errorf("core: invalid MaxSpan %d", o.MaxSpan)
	}
	if o.MinAbsD3 < 0 {
		return o, fmt.Errorf("core: negative MinAbsD3 %v", o.MinAbsD3)
	}
	return o, nil
}

// TripleScan computes D₃ for every triple i < j < k with k−i ≤ MaxSpan,
// returning those passing the magnitude filter in scan order. The shared
// sᵢ&sⱼ AND is hoisted out of the k loop, so each triple costs one AND and
// one POPCNT per word beyond its pair prefix — the same arithmetic the
// pairwise kernel uses, one order higher.
func TripleScan(g *bitmat.Matrix, opt TripleScanOptions) ([]Triple, error) {
	opt, err := opt.normalize()
	if err != nil {
		return nil, err
	}
	if g.Samples == 0 && g.SNPs > 0 {
		return nil, fmt.Errorf("core: triple scan with zero samples")
	}
	n := g.SNPs
	p := AlleleFrequencies(g)
	inv := 0.0
	if g.Samples > 0 {
		inv = 1 / float64(g.Samples)
	}
	ij := make([]uint64, g.Words)
	var out []Triple
	for i := 0; i < n; i++ {
		si := g.SNP(i)
		for j := i + 1; j < n && j-i < opt.MaxSpan; j++ {
			sj := g.SNP(j)
			var cIJ uint32
			for w := range ij {
				ij[w] = si[w] & sj[w]
				cIJ += popcount.Count(ij[w])
			}
			dij := float64(cIJ)*inv - p[i]*p[j]
			for k := j + 1; k <= i+opt.MaxSpan && k < n; k++ {
				sk := g.SNP(k)
				var cIK, cJK, cIJK uint32
				for w := range ij {
					cIK += popcount.Count(si[w] & sk[w])
					cJK += popcount.Count(sj[w] & sk[w])
					cIJK += popcount.Count(ij[w] & sk[w])
				}
				dik := float64(cIK)*inv - p[i]*p[k]
				djk := float64(cJK)*inv - p[j]*p[k]
				pabc := float64(cIJK) * inv
				d3 := pabc - p[i]*djk - p[j]*dik - p[k]*dij - p[i]*p[j]*p[k]
				if d3 >= opt.MinAbsD3 || -d3 >= opt.MinAbsD3 {
					out = append(out, Triple{I: i, J: j, K: k, PABC: pabc, D3: d3})
				}
			}
		}
	}
	return out, nil
}
