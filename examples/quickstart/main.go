// Quickstart: simulate a small population, compute the all-pairs LD
// matrix through the blocked GEMM kernel, and report the strongest
// associations with χ² significance.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"

	"ldgemm"
	"ldgemm/internal/stats"
)

func main() {
	// 1. A genomic matrix: 500 SNPs × 1,000 sequences with realistic LD
	// block structure (in a real pipeline this comes from ReadMS, ReadVCF
	// or ReadBinary).
	g, err := ldgemm.GenerateMosaic(500, 1000, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("genomic matrix: %d SNPs × %d sequences (%d KiB bit-packed)\n",
		g.SNPs, g.Samples, g.SNPs*g.Words*8/1024)

	// 2. All-pairs LD: H = GᵀG/Nseq as a rank-k GEMM, then r², D, D′.
	res, err := ldgemm.LD(g, ldgemm.Options{
		Measures: ldgemm.MeasureR2 | ldgemm.MeasureD | ldgemm.MeasureDPrime,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. The strongest off-diagonal associations.
	type hit struct {
		i, j int
		r2   float64
	}
	var hits []hit
	for i := 0; i < res.SNPs; i++ {
		for j := i + 1; j < res.Cols; j++ {
			hits = append(hits, hit{i, j, res.R2[i*res.Cols+j]})
		}
	}
	sort.Slice(hits, func(a, b int) bool { return hits[a].r2 > hits[b].r2 })

	fmt.Println("\nstrongest LD pairs:")
	fmt.Println("  snp_i  snp_j      r²       D       D'     χ²        p")
	for _, h := range hits[:8] {
		p := res.At(h.i, h.j)
		chi2 := p.Chi2(g.Samples)
		pv, err := stats.ChiSquarePValue(chi2, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %5d  %5d  %6.4f  %+6.4f  %+6.4f  %7.1f  %.2e\n",
			h.i, h.j, p.R2, p.D, p.DPrime, chi2, pv)
	}

	// 4. Aggregate decay: mean r² by SNP distance, the classic LD-decay
	// curve (adjacent SNPs correlated, distant ones not).
	const maxDist = 50
	sums := make([]float64, maxDist+1)
	counts := make([]int, maxDist+1)
	for _, h := range hits {
		if d := h.j - h.i; d <= maxDist {
			sums[d] += h.r2
			counts[d]++
		}
	}
	fmt.Println("\nLD decay (mean r² by SNP distance):")
	for _, d := range []int{1, 2, 5, 10, 20, 50} {
		fmt.Printf("  distance %3d: %.4f\n", d, sums[d]/float64(counts[d]))
	}
}
