package main

import (
	"bufio"
	"fmt"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/core"
	"ldgemm/internal/seqio"
)

// runPrune executes the -prune analysis: sliding-window LD pruning.
func runPrune(w *bufio.Writer, g *bitmat.Matrix, threads int, window, step int, r2 float64) error {
	res, err := core.Prune(g, core.PruneOptions{
		WindowSNPs: window, StepSNPs: step, R2Threshold: r2,
		LD: core.Options{Blis: blis.Config{Threads: threads}},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pruning: kept %d of %d SNPs (window %d, step %d, r² > %g removed)\n",
		len(res.Kept), g.SNPs, window, step, r2)
	fmt.Fprint(w, "kept:")
	for _, i := range res.Kept {
		fmt.Fprintf(w, " %d", i)
	}
	fmt.Fprintln(w)
	return nil
}

// runBlocks executes the -blocks analysis: haplotype block detection.
func runBlocks(w *bufio.Writer, g *bitmat.Matrix, threads int, dprime, frac float64) error {
	blocks, err := core.Blocks(g, core.BlockOptions{
		DPrimeThreshold: dprime, MinStrongFrac: frac,
		LD: core.Options{Blis: blis.Config{Threads: threads}},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "haplotype blocks (|D'| ≥ %g in ≥ %.0f%% of pairs): %d\n",
		dprime, 100*frac, len(blocks))
	fmt.Fprintln(w, "start,end,snps,strong_frac")
	for _, b := range blocks {
		fmt.Fprintf(w, "%d,%d,%d,%.3f\n", b.Start, b.End, b.SNPs(), b.StrongFrac)
	}
	return nil
}

// runLDOut writes every pair above a floor to the tabular .ld format.
func runLDOut(w *bufio.Writer, g *bitmat.Matrix, threads int, measure core.Measure, floor float64) error {
	// Positions are synthesized on an even grid (no map information in
	// the matrix container).
	var recs []seqio.LDRecord
	sopt := core.StreamOptions{
		Options:    core.Options{Measures: measure, Blis: blis.Config{Threads: threads}},
		Triangular: true,
	}
	err := core.Stream(g, sopt, func(i, j0 int, row []float64) {
		for t, v := range row {
			j := j0 + t
			if j == i {
				continue
			}
			av := v
			if av < 0 {
				av = -av
			}
			if av < floor {
				continue
			}
			p := core.PairLD(g, i, j)
			recs = append(recs, seqio.LDRecord{
				ChromA: "1", PosA: 1 + i*100, IDA: fmt.Sprintf("snp_%d", i),
				ChromB: "1", PosB: 1 + j*100, IDB: fmt.Sprintf("snp_%d", j),
				R2: p.R2, D: p.D, DPrime: p.DPrime,
			})
		}
	})
	if err != nil {
		return err
	}
	return seqio.WriteLD(w, recs)
}
