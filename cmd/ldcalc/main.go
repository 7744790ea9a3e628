// Command ldcalc computes all-pairs linkage disequilibrium for a genomic
// dataset using the blocked GEMM kernel.
//
// Usage:
//
//	ldcalc -in data.ldgm -measure r2 -top 20
//	ldcalc -in sim.ms -measure dprime -matrix -out ld.csv
//	ldcalc -in calls.vcf -summary
//	ldcalc -in data.ldgm -prune -blocks
//
// The extension picks the input format (.ms, .vcf, else the binary .ldgm;
// gzip is read too), as in every CLI that loads a dataset. Output modes:
// -summary (default) prints aggregate LD statistics; -top K lists the K
// strongest off-diagonal pairs with χ² significance, in the canonical pair
// order (|value| descending, then (i, j) ascending); -matrix dumps the full
// dense matrix as CSV; -prune and -blocks run the sliding-window pruner and
// haplotype-block detector; -ld-out emits tabular .ld records.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/core"
	"ldgemm/internal/seqio"
	"ldgemm/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ldcalc:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ldcalc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input path (required)")
	measure := fs.String("measure", "r2", "LD measure: r2, d, dprime")
	threads := fs.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
	top := fs.Int("top", 0, "print the K strongest off-diagonal pairs")
	matrix := fs.Bool("matrix", false, "dump the full dense matrix as CSV")
	summary := fs.Bool("summary", false, "print aggregate statistics (default if nothing else chosen)")
	prune := fs.Bool("prune", false, "run sliding-window LD pruning")
	pruneWindow := fs.Int("prune-window", 50, "pruning window in SNPs")
	pruneStep := fs.Int("prune-step", 5, "pruning window step")
	pruneR2 := fs.Float64("prune-r2", 0.5, "pruning r² threshold")
	blocks := fs.Bool("blocks", false, "detect haplotype blocks")
	blocksDPrime := fs.Float64("blocks-dprime", 0.8, "block |D'| threshold")
	blocksFrac := fs.Float64("blocks-frac", 0.9, "block strong-pair fraction")
	ldOut := fs.Bool("ld-out", false, "emit pairs in tabular .ld format")
	ldFloor := fs.Float64("ld-floor", 0.2, "minimum |value| for -ld-out records")
	out := fs.String("out", "", "output path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *in == "" {
		fs.Usage()
		return fmt.Errorf("-in is required")
	}
	g, err := seqio.LoadMatrix(*in)
	if err != nil {
		return err
	}

	var meas core.Measure
	switch strings.ToLower(*measure) {
	case "r2":
		meas = core.MeasureR2
	case "d":
		meas = core.MeasureD
	case "dprime":
		meas = core.MeasureDPrime
	default:
		return fmt.Errorf("unknown measure %q (want r2, d, dprime)", *measure)
	}

	w := bufio.NewWriter(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	defer w.Flush()

	if !*matrix && *top == 0 && !*prune && !*blocks && !*ldOut {
		*summary = true
	}
	opt := core.Options{Measures: meas, Blis: blis.Config{Threads: *threads}}

	if *summary {
		if err := printSummary(w, g, opt); err != nil {
			return err
		}
	}
	if *top > 0 {
		if err := printTop(w, g, opt, meas, *top); err != nil {
			return err
		}
	}
	if *matrix {
		if err := printMatrix(w, g, opt, meas); err != nil {
			return err
		}
	}
	if *prune {
		if err := runPrune(w, g, *threads, *pruneWindow, *pruneStep, *pruneR2); err != nil {
			return err
		}
	}
	if *blocks {
		if err := runBlocks(w, g, *threads, *blocksDPrime, *blocksFrac); err != nil {
			return err
		}
	}
	if *ldOut {
		if err := runLDOut(w, g, *threads, meas, *ldFloor); err != nil {
			return err
		}
	}
	return nil
}

func printSummary(w *bufio.Writer, g *bitmat.Matrix, opt core.Options) error {
	sum, pairs, err := core.SumR2(g, core.StreamOptions{Options: opt})
	if err != nil {
		return err
	}
	offDiag := pairs - int64(g.SNPs)
	// Diagonal r² is 1 for every polymorphic SNP; subtract to report the
	// informative mean.
	poly := 0
	for i := 0; i < g.SNPs; i++ {
		if c := g.DerivedCount(i); c > 0 && c < g.Samples {
			poly++
		}
	}
	fmt.Fprintf(w, "SNPs:               %d\n", g.SNPs)
	fmt.Fprintf(w, "sequences:          %d\n", g.Samples)
	fmt.Fprintf(w, "polymorphic SNPs:   %d\n", poly)
	fmt.Fprintf(w, "pairs (incl diag):  %d\n", pairs)
	if offDiag > 0 {
		fmt.Fprintf(w, "mean off-diag r²:   %.6f\n", (sum-float64(poly))/float64(offDiag))
	}
	freqs := core.AlleleFrequencies(g)
	fmt.Fprintf(w, "mean derived freq:  %.4f\n", stats.Mean(freqs))
	return nil
}

type pairHit struct {
	i, j int
	v    float64
}

// ranksBefore is core.RanksBefore over |v|, the order /api/ld/top ranks
// in: ties come out in (i, j) order, and a tie at the cut keeps the
// earlier pair.
func (a pairHit) ranksBefore(b pairHit) bool {
	return core.RanksBefore(abs(a.v), a.i, a.j, abs(b.v), b.i, b.j)
}

func printTop(w *bufio.Writer, g *bitmat.Matrix, opt core.Options, meas core.Measure, k int) error {
	// hits stays sorted by ranksBefore; a pair that beats the last one is
	// inserted at its rank and the last one falls off.
	hits := make([]pairHit, 0, k)
	sopt := core.StreamOptions{Options: opt, Triangular: true}
	sopt.Measures = meas
	err := core.Stream(g, sopt, func(i, j0 int, row []float64) {
		for t, v := range row {
			h := pairHit{i, j0 + t, v}
			if h.j == i || len(hits) == k && !h.ranksBefore(hits[k-1]) {
				continue
			}
			at := sort.Search(len(hits), func(x int) bool { return h.ranksBefore(hits[x]) })
			if len(hits) < k {
				hits = append(hits, pairHit{})
			}
			copy(hits[at+1:], hits[at:])
			hits[at] = h
		}
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "snp_i,snp_j,value,chi2,p_value\n")
	for _, h := range hits {
		p := core.PairLD(g, h.i, h.j)
		chi2 := p.Chi2(g.Samples)
		pv, err := stats.ChiSquarePValue(chi2, 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d,%d,%.6f,%.3f,%.3e\n", h.i, h.j, h.v, chi2, pv)
	}
	return nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func printMatrix(w *bufio.Writer, g *bitmat.Matrix, opt core.Options, meas core.Measure) error {
	sopt := core.StreamOptions{Options: opt}
	sopt.Measures = meas
	return core.Stream(g, sopt, func(i, j0 int, row []float64) {
		for t, v := range row {
			if t > 0 {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "%.6g", v)
		}
		w.WriteByte('\n')
	})
}
