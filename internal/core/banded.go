package core

import (
	"fmt"

	"ldgemm/internal/bitmat"
)

// BandOptions configures a banded LD scan: only pairs within Band SNPs of
// each other are computed (PLINK's --ld-window; the workload for
// chromosome-scale inputs where the full n² is neither affordable nor
// wanted, since LD decays within a few hundred SNPs).
type BandOptions struct {
	Options
	// Band is the maximum index distance computed (required, ≥ 1).
	Band int
	// StripeRows bounds the per-stripe materialization (default 512).
	StripeRows int
}

// BandedStream computes LD for all pairs (i, j) with i ≤ j ≤ i+Band,
// delivering rows like Stream: visit(i, j0, row) with j0 == i and row[t]
// the statistic for pair (i, i+t), truncated at min(i+Band, n−1). It is the
// triangular banded Stream — same schedule, same fused epilogue, so every
// value is bit-equal to the unbanded scan's in-band cell — and its total
// work is O(n·Band·k/64), linear in n.
func BandedStream(g *bitmat.Matrix, opt BandOptions, visit func(i, j0 int, row []float64)) error {
	if opt.Band < 1 {
		return fmt.Errorf("core: invalid band %d", opt.Band)
	}
	return Stream(g, StreamOptions{
		Options: opt.Options, StripeRows: opt.StripeRows,
		Triangular: true, Banded: true, Band: opt.Band,
	}, visit)
}

// BandedSumR2 reduces r² over the band (diagonal included), the banded
// analogue of SumR2.
func BandedSumR2(g *bitmat.Matrix, opt BandOptions) (sum float64, pairs int64, err error) {
	opt.Measures = MeasureR2
	err = BandedStream(g, opt, func(i, j0 int, row []float64) {
		for _, v := range row {
			sum += v
		}
		pairs += int64(len(row))
	})
	return sum, pairs, err
}
