package core

import (
	"fmt"
	"sync"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/bufpool"
)

// StreamOptions configures a striped streaming LD scan.
type StreamOptions struct {
	Options
	// StripeRows is the number of SNP rows materialized at a time
	// (default 512). Peak memory is one StripeRows × SNPs float64 stripe,
	// StripeRows × (StripeRows + Band) when Banded.
	StripeRows int
	// Triangular restricts the scan to the upper triangle exactly: each
	// stripe runs a symmetric rank-k update on its diagonal block plus a
	// GEMM on its off-diagonal rectangle, so both the count work and the
	// epilogue touch precisely the N(N+1)/2 pairs of the paper's
	// Tables I–III.
	Triangular bool
	// Exact routes every statistic through PairFromFreqs — the same
	// operation sequence as the dense Matrix epilogue — so streamed
	// values are bit-identical to Matrix's outputs. The default r² path
	// multiplies precomputed variance reciprocals instead of dividing,
	// which is faster but can differ from the dense epilogue in the last
	// ulp. The ldstore Builder sets Exact so precomputed tiles serve
	// byte-identical answers to the on-the-fly compute paths.
	Exact bool
	// RowStart/RowEnd restrict the scan to rows [RowStart, RowEnd): only
	// those rows are visited (in triangular mode each still spans columns
	// j ≥ i up to n). Both zero means the full range. Per-row values are
	// bit-identical to a full scan's — a cluster shard streaming only its
	// owned row strip reproduces exactly the rows a single node computes.
	RowStart, RowEnd int
	// IOPanelSNPs is the column-panel width (in SNPs) of the scan's B-side
	// fetches from a file-backed source (default 1024), and the unit the
	// band-skip counters count panels in. A resident matrix (Stream, or a
	// bitmat.MemSource) is fetched one panel wide whatever it says: its
	// panels are zero-copy views, so a narrower cut would only add driver
	// calls. Values are bit-independent of the panel width — every output
	// cell's count is a full-K dot product no matter how the columns are
	// paneled.
	IOPanelSNPs int
	// Banded restricts the scan to pairs with |i−j| ≤ Band by capping each
	// stripe's off-diagonal work at the band edge: far-off-diagonal column
	// panels are never scheduled, fetched, or multiplied, and delivered
	// rows stop at column min(n−1, i+Band). Band = 0 is legal (diagonal
	// only), which is why the mode has its own flag. Every in-band value
	// is still a full-K dot product through the identical epilogue, so
	// in-band results are bit-identical to an unbanded scan's, and
	// Band ≥ n−1 degenerates to exactly the unbanded schedule. Requires
	// Triangular. Skipped work is recorded on blis.DriverStats
	// (BandPanelsSkipped/BandCellsSkipped).
	Banded bool
	Band   int
}

// stripeRows resolves the stripe height.
func (o StreamOptions) stripeRows() int {
	if o.StripeRows == 0 {
		return 512
	}
	return o.StripeRows
}

// ioPanel resolves the I/O column-panel width.
func (o StreamOptions) ioPanel() int {
	if o.IOPanelSNPs > 0 {
		return o.IOPanelSNPs
	}
	return 1024
}

// check validates what every streaming scan shares: a scan hands out
// float64 rows and has no dense count matrix to hand back for KeepCounts,
// and a band needs the triangular schedule.
func (o StreamOptions) check() error {
	if o.Measures&KeepCounts != 0 {
		return fmt.Errorf("core: a streaming scan has no dense count matrix to keep (KeepCounts)")
	}
	if !o.Banded {
		return nil
	}
	if o.Band < 0 {
		return fmt.Errorf("core: invalid band width %d", o.Band)
	}
	if !o.Triangular {
		return fmt.Errorf("core: banded streaming requires Triangular")
	}
	return nil
}

// rowEndCol returns the exclusive end column of row gi's delivered slice.
func (o StreamOptions) rowEndCol(gi, n int) int {
	if !o.Banded {
		return n
	}
	return min(n, gi+o.Band+1)
}

// stripeColEnd returns the exclusive end column of a stripe's off-diagonal
// block: unbanded stripes span to n, banded ones stop where the stripe's
// last row leaves the band.
func (o StreamOptions) stripeColEnd(i0, rows, n int) int {
	if !o.Banded {
		return n
	}
	return min(n, i0+rows+o.Band)
}

// rowWindow resolves the [RowStart, RowEnd) window against n rows.
func (o StreamOptions) rowWindow(n int) (lo, hi int, err error) {
	if o.RowStart == 0 && o.RowEnd == 0 {
		return 0, n, nil
	}
	if o.RowStart < 0 || o.RowEnd <= o.RowStart || o.RowEnd > n {
		return 0, 0, fmt.Errorf("core: invalid row window [%d,%d) of %d rows", o.RowStart, o.RowEnd, n)
	}
	return o.RowStart, o.RowEnd, nil
}

// rowVisitor is the sink behind the row visitors of Stream and
// StreamSource: one pooled buffer, every finished stripe handed to visit
// row by row.
type rowVisitor struct {
	opt   StreamOptions
	n     int
	visit func(i, j0 int, row []float64)
	buf   *[]float64
}

// StripeBuffer returns the buffer the next stripe is computed into, cells
// float64s long. It need not be cleared: the scan assigns every cell it
// goes on to deliver and reads none.
func (v *rowVisitor) StripeBuffer(cells int) []float64 {
	// The first stripe of a scan is its largest, so one buffer serves all.
	// It is taken at the size a stripe of this height has at row 0, where it
	// is widest: a scan over any row window then fits the buffer the last
	// scan of its stripe height pooled, whatever that one's window was.
	if v.buf == nil {
		lo, hi, _ := v.opt.rowWindow(v.n)
		rows := min(v.opt.stripeRows(), hi-lo)
		v.buf = getStripe(max(cells, v.opt.StripeCells(rows, 0, rows, v.n)))
	}
	return (*v.buf)[:cells]
}

// StripeDone visits the stripe computed into the last StripeBuffer: SNP
// rows [i0, i0+rows), row r at vals[r*width : (r+1)*width]. In a
// triangular scan column 0 is SNP i0 and row r is meaningful from its own
// diagonal, column r, to the band edge min(n, i0+r+Band+1) − i0 (n − i0
// unbanded); cells outside that are by-products or stale. Otherwise column
// 0 is SNP 0 and every cell of the n-wide row is delivered.
func (v *rowVisitor) StripeDone(i0, rows, width int, vals []float64) {
	for r := 0; r < rows; r++ {
		gi := i0 + r
		j0, from, to := 0, 0, width
		if v.opt.Triangular {
			j0, from, to = gi, r, v.opt.rowEndCol(gi, v.n)-i0
		}
		v.visit(gi, j0, vals[r*width+from:r*width+to])
	}
}

// release returns the buffer to the pool once the scan is over.
func (v *rowVisitor) release() {
	if v.buf != nil {
		stripePool.Put(v.buf)
	}
}

// Stream computes all-pairs LD for matrices too large to materialize n²
// float64 outputs: it runs the blocked GEMM stripe by stripe and hands
// each finished row to visit as (i, j0, row) where row[t] is the statistic
// for the pair (i, j0+t). In full mode j0 is always 0; in triangular mode
// j0 == i (each row starts at its own diagonal). The row slice is reused
// across calls — and, once Stream returns, by later scans (the stripe
// buffer is pooled); callers must not retain it.
//
// The statistic delivered is r² unless Options.Measures selects exactly
// MeasureD or MeasureDPrime. Stream is StreamSource over the resident
// matrix, fetched one panel wide: a triangular stripe makes one SYRK and at
// most one GEMM, a full stripe one GEMM.
func Stream(g *bitmat.Matrix, opt StreamOptions, visit func(i, j0 int, row []float64)) error {
	return StreamSource(bitmat.NewMemSource(g), opt, visit)
}

// stripeScan builds the stripe epilogues of one fused scan. Whatever
// per-SNP table the r² path reads is built once, over the scan's whole
// frequency vector, and sliced per stripe — every entry depends on its own
// p[i] only. The table is a bufpool.Floats buffer, which the scan hands
// back once it is over (scan.release).
type stripeScan struct {
	meas   Measure
	fast   bool
	inv    float64   // 1/Nseq
	p, tab []float64 // of SNPs p0, p0+1, …
	p0     int
}

func newStripeScan(opt StreamOptions, p []float64, samples int) *stripeScan {
	s := &stripeScan{meas: opt.measures(), p: p}
	s.fast = s.meas&MeasureR2 != 0 && !opt.Exact
	if samples > 0 {
		s.inv = 1 / float64(samples)
	}
	if s.meas&MeasureR2 != 0 {
		s.tab = r2Table(bufpool.Floats.Get(len(p)), p, s.fast)
	}
	return s
}

// stat returns the scan's single statistic: r² unless the measures select
// exactly D or D′.
func (s *stripeScan) stat() Measure {
	switch {
	case s.meas&MeasureR2 != 0:
		return MeasureR2
	case s.meas&MeasureD != 0:
		return MeasureD
	}
	return MeasureDPrime
}

// epilogue returns the epilogue writing the scan's single statistic into
// out (row stride ld) for a panel whose row 0 is SNP row0 and whose
// column 0 is SNP col0. A kept scan passes no out: it only converts.
func (s *stripeScan) epilogue(out []float64, ld, row0, col0 int) *denseEpilogue {
	e := &denseEpilogue{
		measureOut: measureOut{ld: ld},
		rowFreqs:   s.p[row0-s.p0:], colFreqs: s.p[col0-s.p0:],
		inv: s.inv, fast: s.fast,
	}
	switch s.stat() {
	case MeasureR2:
		e.r2 = out
		e.rowTab, e.colTab = s.tab[row0-s.p0:], s.tab[col0-s.p0:]
	case MeasureD:
		e.d = out
	default:
		e.dp = out
	}
	return e
}

// StripeCells returns the float64 cells of the stripe that starts at row lo
// of a fused scan ending at row hi: its height times the columns from the
// stripe origin to n, or to the band edge. A scan's first stripe is its
// largest, and one starting at row 0 is at least as large as any stripe of
// the same height, so a buffer sized there serves a scan over any window.
func (o StreamOptions) StripeCells(stripe, lo, hi, n int) int {
	rows, width := min(stripe, hi-lo), n
	if o.Triangular {
		width = o.stripeColEnd(lo, rows, n) - lo
	}
	return rows * width
}

// stripePool recycles the fused scans' float64 stripe buffers (*[]float64)
// across calls. A recycled buffer is not cleared: the epilogue assigns
// every cell a scan goes on to deliver, and nothing else is read.
var stripePool sync.Pool

// getStripe returns a stripe buffer of cells elements.
func getStripe(cells int) *[]float64 {
	if b, _ := stripePool.Get().(*[]float64); b != nil && cap(*b) >= cells {
		*b = (*b)[:cells]
		return b
	}
	b := make([]float64, cells)
	return &b
}

// SumR2 runs a triangular streaming scan and returns the sum and count of
// r² over the upper triangle including the diagonal — the cheap
// whole-matrix reduction the benchmark harness uses to keep the epilogue
// honest without storing n² floats.
func SumR2(g *bitmat.Matrix, opt StreamOptions) (sum float64, pairs int64, err error) {
	opt.Triangular = true
	opt.Measures = MeasureR2
	err = Stream(g, opt, func(i, j0 int, row []float64) {
		for _, v := range row {
			sum += v
		}
		pairs += int64(len(row))
	})
	return sum, pairs, err
}
