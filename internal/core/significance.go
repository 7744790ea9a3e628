package core

import (
	"fmt"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/stats"
)

// SignificantPair is one SNP pair whose LD rejects the null of linkage
// equilibrium after multiple-testing correction.
type SignificantPair struct {
	I, J   int
	R2     float64
	Chi2   float64
	PValue float64
}

// SignificanceOptions configures the equilibrium test scan.
type SignificanceOptions struct {
	// Alpha is the family-wise significance level (default 0.05).
	Alpha float64
	// Bonferroni applies the correction for the number of tested pairs
	// (default true via normalize; set AlphaIsPerTest to opt out).
	AlphaIsPerTest bool
	// MaxResults caps the returned list (default 10000); the scan still
	// counts all significant pairs.
	MaxResults int
	// RowStart/RowEnd restrict the scan to pairs (i, j) with i — the
	// smaller index — in [RowStart, RowEnd). Both zero means all rows.
	// A cluster shard scans only its owned strip this way; because each
	// pair's statistic is a pure function of its counts and frequencies,
	// strip results are bit-identical to the matching rows of a full
	// scan. Note the Bonferroni denominator is the strip's own pair
	// count: cluster-wide scans should set AlphaIsPerTest so every
	// shard applies the same threshold.
	RowStart, RowEnd int
	// LD carries blocking/threading options.
	LD Options
}

func (o SignificanceOptions) normalize() (SignificanceOptions, error) {
	if o.Alpha == 0 {
		o.Alpha = 0.05
	}
	if o.MaxResults == 0 {
		o.MaxResults = 10000
	}
	if o.Alpha <= 0 || o.Alpha >= 1 || o.MaxResults < 1 {
		return o, fmt.Errorf("core: invalid significance options %+v", o)
	}
	return o, nil
}

// SignificanceResult summarizes an equilibrium-test scan.
type SignificanceResult struct {
	// Tested is the number of off-diagonal pairs tested.
	Tested int64
	// Significant is the number rejecting the null at the (corrected)
	// threshold.
	Significant int64
	// Threshold is the per-test p-value cutoff actually applied.
	Threshold float64
	// Pairs holds up to MaxResults significant pairs, strongest first.
	Pairs []SignificantPair
}

// Significance scans all SNP pairs, tests each for linkage disequilibrium
// with the χ² statistic Nseq·r² (1 df), and returns the pairs passing a
// Bonferroni-corrected threshold. The χ² values come from the selection
// scan (select.go), which ranks the fast r² of every pair inside the fused
// epilogue, on Threads driver workers, and keeps MaxResults pairs a worker.
func Significance(g *bitmat.Matrix, opt SignificanceOptions) (*SignificanceResult, error) {
	opt, err := opt.normalize()
	if err != nil {
		return nil, err
	}
	n := g.SNPs
	lo, hi := opt.RowStart, opt.RowEnd
	if lo == 0 && hi == 0 {
		hi = n
	}
	if lo < 0 || hi <= lo || hi > n {
		return nil, fmt.Errorf("core: invalid row window [%d,%d) of %d SNPs", lo, hi, n)
	}
	// Off-diagonal pairs with their smaller index in the window: row i
	// contributes n-1-i of them.
	tested := (int64(n-1-lo) + int64(n-hi)) * int64(hi-lo) / 2
	threshold := opt.Alpha
	if !opt.AlphaIsPerTest && tested > 0 {
		threshold = opt.Alpha / float64(tested)
	}
	// Invert once: the χ² value whose tail is exactly the threshold; a
	// pair is significant iff its χ² exceeds it. Bisection on the
	// monotone tail function avoids per-pair p-value evaluation.
	chiCut, err := chiSquareQuantile(threshold)
	if err != nil {
		return nil, err
	}

	// Each worker keeps the MaxResults first pairs of the canonical ranking
	// it saw, so ties at the cut resolve exactly as the final sort would;
	// p-values are evaluated once at the end, only for the survivors.
	sel := getSelector(opt.MaxResults, chiCut/float64(max(g.Samples, 1)))
	defer selectorPool.Put(sel)
	err = selectScan(bitmat.NewMemSource(g), StreamOptions{Options: opt.LD, RowStart: lo, RowEnd: hi}, sel)
	if err != nil {
		return nil, err
	}
	res := &SignificanceResult{Tested: tested, Threshold: threshold}
	// Strongest first, ties broken by (I, J) so the ranking is fully
	// deterministic — a cluster coordinator merging per-shard lists with
	// the same comparator reproduces the single-node order exactly.
	res.Pairs, _, res.Significant = sel.merge()
	for idx := range res.Pairs {
		p := &res.Pairs[idx]
		p.Chi2 = float64(g.Samples) * p.R2
		pv, perr := stats.ChiSquarePValue(p.Chi2, 1)
		if perr != nil {
			pv = 0 // deep tail beyond float precision
		}
		p.PValue = pv
	}
	return res, nil
}

// RanksBefore is the canonical ranking of SNP pairs, over the bare
// (r², i, j) triple: by r² descending, then (i, j) ascending. Every
// ranking in the system — Significance below, the tile store's top-K
// heap, a coordinator's k-way merge of per-shard lists — orders by this
// one comparator, so merged partial rankings reproduce a full scan's
// order exactly.
func RanksBefore(r2a float64, ia, ja int, r2b float64, ib, jb int) bool {
	if r2a != r2b {
		return r2a > r2b
	}
	if ia != ib {
		return ia < ib
	}
	return ja < jb
}

// chiSquareQuantile returns the χ² value (1 df) whose upper-tail
// probability equals p, by bisection on the monotone tail.
func chiSquareQuantile(p float64) (float64, error) {
	if p <= 0 {
		// Beyond representable tails: effectively infinite cutoff; use a
		// value whose tail underflows to 0.
		return 1e8, nil
	}
	if p >= 1 {
		return 0, nil
	}
	lo, hi := 0.0, 1.0
	for {
		tail, err := stats.ChiSquarePValue(hi, 1)
		if err != nil {
			return 0, err
		}
		if tail < p || hi > 1e9 {
			break
		}
		hi *= 2
	}
	for iter := 0; iter < 200 && hi-lo > 1e-10*(1+hi); iter++ {
		mid := (lo + hi) / 2
		tail, err := stats.ChiSquarePValue(mid, 1)
		if err != nil {
			return 0, err
		}
		if tail > p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
