// Package core implements the paper's primary contribution: linkage-
// disequilibrium computation cast as dense linear algebra (Section II).
//
// Given a genomic matrix G whose columns are bit-packed SNPs, the package
// computes
//
//	H = (1/Nseq) · GᵀG   (haplotype frequencies, Eq. 4 — a rank-k GEMM)
//	D = H − p pᵀ         (Eq. 1/5, with p the allele-frequency vector)
//	r² = D² / (pᵢ(1−pᵢ) pⱼ(1−pⱼ))   (Eq. 2)
//
// plus Lewontin's D′ normalization, χ² significance, gap-masked variants
// (Section VII), and finite-sites-model LD with Zaykin's T statistic. The
// O(n³) count matrix is produced by the BLIS-style blocked driver in
// internal/blis; everything else is the O(n²) epilogue.
package core

import (
	"fmt"
	"math"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/popcount"
)

// Measure selects which LD statistics to materialize.
type Measure uint

const (
	// MeasureD requests the raw disequilibrium coefficient D (Eq. 1).
	MeasureD Measure = 1 << iota
	// MeasureR2 requests the squared Pearson coefficient r² (Eq. 2).
	MeasureR2
	// MeasureDPrime requests Lewontin's normalized D′.
	MeasureDPrime
	// KeepCounts also returns the raw haplotype count matrix (Matrix and
	// Cross; MaskedMatrix returns none). It changes no measure bit.
	KeepCounts
)

// Options configures an LD computation.
type Options struct {
	// Measures selects the statistics to compute; MeasureR2 if zero.
	Measures Measure
	// Blis carries blocking parameters and thread count for the GEMM, and
	// in Blis.Ctx the computation's one cancellation context. Serving
	// paths set it to the request context so abandoned requests stop
	// burning workers.
	Blis blis.Config
}

func (o Options) measures() Measure {
	if o.Measures&(MeasureD|MeasureR2|MeasureDPrime) == 0 {
		return o.Measures | MeasureR2
	}
	return o.Measures
}

// Pair holds every per-pair LD quantity for one SNP pair.
type Pair struct {
	PAB    float64 // haplotype frequency P(AB)
	PA     float64 // allele frequency of the first SNP
	PB     float64 // allele frequency of the second SNP
	D      float64 // P(AB) − P(A)P(B)
	R2     float64 // Eq. 2; 0 when either SNP is monomorphic
	DPrime float64 // D / D_max; 0 when undefined
}

// PairFromFreqs assembles the LD statistics from the three frequencies.
func PairFromFreqs(pab, pa, pb float64) Pair {
	d := pab - pa*pb
	p := Pair{PAB: pab, PA: pa, PB: pb, D: d}
	// Grouping the variance factors per SNP keeps the result bit-symmetric
	// under pa↔pb (IEEE multiplication commutes), so mirrored matrix
	// entries and tile-store reads of (j, i) reproduce (i, j) exactly.
	den := (pa * (1 - pa)) * (pb * (1 - pb))
	if den > 0 {
		p.R2 = d * d / den
	}
	var dmax float64
	if d >= 0 {
		dmax = math.Min(pa*(1-pb), pb*(1-pa))
	} else {
		dmax = math.Min(pa*pb, (1-pa)*(1-pb))
	}
	if dmax > 0 {
		// Signed convention: D′ keeps the sign of D, |D′| ≤ 1.
		p.DPrime = math.Max(-1, math.Min(1, d/dmax))
	}
	return p
}

// Chi2 returns the χ² statistic for the null hypothesis of linkage
// equilibrium: χ² = Nseq · r² (1 degree of freedom for biallelic SNPs).
func (p Pair) Chi2(nseq int) float64 { return float64(nseq) * p.R2 }

// AlleleFrequencies returns the per-SNP derived-allele frequency vector p
// of Eq. 3: pᵢ = (sᵢᵀsᵢ)/Nseq.
func AlleleFrequencies(g *bitmat.Matrix) []float64 {
	p := make([]float64, g.SNPs)
	for i := range p {
		p[i] = g.AlleleFrequency(i)
	}
	return p
}

// PairLD computes the LD statistics between SNPs i and j of g directly
// (one dot product), bypassing the blocked driver. It is the per-pair
// convenience entry and the oracle used in tests.
func PairLD(g *bitmat.Matrix, i, j int) Pair {
	if g.Samples == 0 {
		return Pair{}
	}
	si, sj := g.SNP(i), g.SNP(j)
	var cnt uint32
	for w := range si {
		cnt += popcount.Count(si[w] & sj[w])
	}
	n := float64(g.Samples)
	return PairFromFreqs(float64(cnt)/n, g.AlleleFrequency(i), g.AlleleFrequency(j))
}

// Result is a materialized all-pairs LD matrix. For the symmetric case
// (Matrix) every requested statistic is a full SNPs×Cols dense row-major
// matrix with both triangles filled; for Cross the rows index the first
// input and the columns the second.
type Result struct {
	SNPs    int // rows
	Cols    int // columns
	Samples int
	// RowFreqs and ColFreqs are the allele-frequency vectors of the row
	// and column SNPs (aliases of each other for the symmetric case).
	RowFreqs []float64
	ColFreqs []float64
	// Counts is the raw haplotype count matrix (present with KeepCounts).
	Counts []uint32
	// D, R2, DPrime are present when the corresponding Measure was set.
	// They are taken from bufpool.Floats: a caller done with one may hand
	// it back there, once; one that is never handed back is garbage.
	D      []float64
	R2     []float64
	DPrime []float64
}

// At returns the full per-pair statistics for entry (i, j), recomputed
// from counts when retained, or from whichever dense matrices exist.
func (r *Result) At(i, j int) Pair {
	idx := i*r.Cols + j
	pa, pb := r.RowFreqs[i], r.ColFreqs[j]
	if r.Counts != nil {
		return PairFromFreqs(float64(r.Counts[idx])/float64(r.Samples), pa, pb)
	}
	var p Pair
	p.PA, p.PB = pa, pb
	if r.D != nil {
		p.D = r.D[idx]
		p.PAB = p.D + pa*pb
	}
	if r.R2 != nil {
		p.R2 = r.R2[idx]
	}
	if r.DPrime != nil {
		p.DPrime = r.DPrime[idx]
	}
	return p
}

// Matrix computes all-pairs LD within one genomic matrix: the H = GᵀG/Nseq
// rank-k update of Section III-B via the blocked symmetric driver, with the
// O(n²) D/r²/D′ epilogue fused into the driver's tile sweep. Both triangles
// of each output are filled; with KeepCounts so are the counts', the upper
// triangle copied out by the epilogue and mirrored afterwards.
func Matrix(g *bitmat.Matrix, opt Options) (*Result, error) {
	if g.Samples == 0 && g.SNPs > 0 {
		return nil, fmt.Errorf("core: LD of %d SNPs with zero samples", g.SNPs)
	}
	n := g.SNPs
	p := AlleleFrequencies(g)
	res := &Result{SNPs: n, Cols: n, Samples: g.Samples, RowFreqs: p, ColFreqs: p}
	if err := blis.SyrkEpilogue(opt.Blis, g, newDenseEpilogue(res, opt, true)); err != nil {
		return nil, err
	}
	if res.Counts != nil {
		blis.Mirror(res.Counts, n, n)
	}
	return res, nil
}

// Cross computes LD between every SNP of a and every SNP of b — the
// two-matrix workload of Figure 4 used for long-range LD and association
// between distant genes. All m×n outputs are computed.
func Cross(a, b *bitmat.Matrix, opt Options) (*Result, error) {
	if a.Samples != b.Samples {
		return nil, fmt.Errorf("core: sample mismatch %d vs %d", a.Samples, b.Samples)
	}
	if a.Samples == 0 && a.SNPs > 0 && b.SNPs > 0 {
		return nil, fmt.Errorf("core: cross LD with zero samples")
	}
	res := &Result{
		SNPs: a.SNPs, Cols: b.SNPs, Samples: a.Samples,
		RowFreqs: AlleleFrequencies(a), ColFreqs: AlleleFrequencies(b),
	}
	if err := blis.GemmEpilogue(opt.Blis, a, b, newDenseEpilogue(res, opt, false)); err != nil {
		return nil, err
	}
	return res, nil
}
