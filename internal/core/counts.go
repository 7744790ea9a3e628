package core

import (
	"fmt"
	"math"
	"sync"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
)

// This file implements the counts stream mode: a triangular scan that hands
// over each stripe as the driver's joint haplotype counts H[i][j] — the
// number of sequences carrying the derived allele at both SNPs — rather than
// as floats. The counts are the result; D, r² and D′ are conversions of them
// (Eq. 1, 2), which a reader runs with CountConverter, the row code of
// Matrix's epilogue. The one float the scan computes is the exact r² of
// off-diagonal cells, and only to fold each tile's maximum, in the same pass
// that narrows the counts (countsRow16); the row kernel skips the divide of
// cells that cannot raise the maximum.

// CountBytes is the width of a stored count for N samples: 2 bytes when
// every count fits a uint16 (N ≤ 65 535), else 4.
func CountBytes(samples int) int {
	if samples <= math.MaxUint16 {
		return 2
	}
	return 4
}

// CountStripe is one stripe of a counts scan: the joint counts of SNP rows
// [I0, I0+Rows) against columns [I0, I0+Width), in C16 when CountBytes is 2
// and in C32 otherwise. Row r is delivered from its own diagonal, column r,
// to its end: cells left of it are stale, never written by this scan.
//
// The stripe is laid out tile by tile. Its tiles are TileCols wide (the
// scan's StripeRows): tile k is stripe columns [k·TileCols,
// (k+1)·TileCols), the last one cut at Width, and tile 0 the diagonal
// block. Tile k's rows lie one after another, each as long as the tile is
// wide (Tile). TileMax[k] is the greatest exact r² over tile k's delivered
// cells off the diagonal, −Inf where there are none (a 1 × 1 diagonal
// tile).
type CountStripe struct {
	I0, Rows, Width int
	TileCols        int
	C16             []uint16
	C32             []uint32
	TileMax         []float64
	// InFlight is how many stripes the scan computed at once, each into
	// storage of its own (StreamSourceCounts).
	InFlight int
}

// Tile returns where tile k lies in C16 or C32: its Rows rows one after
// another from off, each stride counts long — the tile's width, so the
// stripe holds no padding.
func (c *CountStripe) Tile(k int) (off, stride int) {
	col := k * c.TileCols
	return c.Rows * col, min(c.TileCols, c.Width-col)
}

// Bytes is the stripe's size as held: its counts and tile maxima.
func (c *CountStripe) Bytes() int64 {
	return int64(len(c.C16))*2 + int64(len(c.C32))*4 + int64(len(c.TileMax))*8
}

// CountSink receives a counts scan a stripe at a time, in stripe order.
type CountSink interface {
	// Alleles is handed every SNP's derived-allele count — H's diagonal —
	// once, before any stripe.
	Alleles(counts []uint32)
	// CountBuffer returns the stripe the next finished stripe is handed
	// over in. It is called once per stripe, in stripe order, once that
	// stripe is computed, and may block (the sink's back-pressure on the
	// scan). The scan swaps the stripe's contents with the storage it
	// computed into, so the sink gets the counts without a copy and the
	// scan reuses the sink's old slices; neither is cleared.
	CountBuffer() *CountStripe
	// CountDone is told that the stripe from the last CountBuffer is
	// complete, after which the scan never touches it again.
	CountDone(c *CountStripe)
}

// StreamSourceCounts is the counts stream mode of the triangular scan (see
// StreamSourceKept for the schedule): each stripe's joint counts, narrowed
// to CountBytes, with every tile's maximum exact r², handed over in stripe
// order. Threads stripes run at once (GOMAXPROCS when Threads is 0, never
// more than the scan has), each one's driver call on a single worker and
// into storage of its own, so besides the sink's stripes the scan holds
// one stripe's storage per stripe in flight. Options.Measures and Exact
// are ignored: the maximum is always the exact quotient. It returns only
// once its prefetcher and every stripe worker have exited.
func StreamSourceCounts(src bitmat.Source, opt StreamOptions, sink CountSink) error {
	if !opt.Triangular {
		return fmt.Errorf("core: a counts scan is triangular")
	}
	sc, err := newScan(src, opt, true)
	if err != nil {
		return err
	}
	defer sc.release()
	inFlight := sc.oneWorkerStripes()
	conv := sc.conv(StreamOptions{Options: Options{Measures: MeasureR2}, Exact: true})
	wide := CountBytes(sc.samples) > 2
	sink.Alleles(sc.alleles)
	return sc.run(inFlight, func() stripeOut {
		o := &countOut{sink: sink, c: countStripePool.Get().(*CountStripe), inFlight: inFlight}
		o.epi = countsEpilogue{conv: conv, sc: sc, c: o.c, wide: wide}
		return o
	})
}

// countStripePool recycles the counts scans' working stripes. Their slices
// are swapped with the sink's on delivery, so what a stripe holds when it
// comes back is whatever a sink last gave up.
var countStripePool = sync.Pool{New: func() any { return new(CountStripe) }}

// countOut is one stripe worker's side of a counts scan: the counts
// epilogue writes its stripes into c, which is swapped into the sink's
// buffer on delivery.
type countOut struct {
	sink     CountSink
	c        *CountStripe
	epi      countsEpilogue
	inFlight int
}

func (o *countOut) open(i0, rows, width int) {
	c, stripe := o.c, o.epi.sc.stripe
	c.I0, c.Rows, c.Width, c.TileCols = i0, rows, width, stripe
	if o.epi.wide {
		c.C16, c.C32 = c.C16[:0], grow(c.C32, rows*width)
	} else {
		c.C16, c.C32 = grow(c.C16, rows*width), c.C32[:0]
	}
	c.TileMax = grow(c.TileMax, (width+stripe-1)/stripe)
	for k := range c.TileMax {
		c.TileMax[k] = math.Inf(-1)
	}
}

func (o *countOut) epilogue(col0 int) blis.Epilogue {
	o.epi.col0 = col0
	return &o.epi
}

func (o *countOut) deliver() {
	dst := o.sink.CountBuffer()
	*dst, *o.c = *o.c, *dst
	dst.InFlight = o.inFlight
	o.sink.CountDone(dst)
}

func (o *countOut) release() { countStripePool.Put(o.c) }

// countsEpilogue is the fused epilogue of one panel of a counts scan:
// each row run's delivered cells — from the row's diagonal on, to the band
// edge — are stored narrowed into the stripe, and their exact r² folded
// into their tile's maximum. The stripe's rows are SNPs c.I0 on; the
// panel's row 0 is the stripe's, its column 0 SNP col0. It must run on one
// worker: a counts scan makes every driver call with Threads = 1.
type countsEpilogue struct {
	conv *stripeScan // frequencies and the exact r² variance table
	sc   *scan
	c    *CountStripe
	col0 int
	wide bool
}

// RowRun is the blis.Epilogue hook.
func (e *countsEpilogue) RowRun(_ int, t []uint32, ldt, i0, j0, mm, nn int) {
	c := e.c
	for r := 0; r < mm; r++ {
		gi := c.I0 + i0 + r
		from, to := max(j0, gi-e.col0), min(j0+nn, e.sc.opt.rowEndCol(gi, e.sc.n)-e.col0)
		if from < to {
			e.row(t[r*ldt+from-j0:][:to-from], gi, e.col0+from)
		}
	}
}

// row stores the counts of row gi, columns [j, j+len(cnt)), into their
// tiles, and folds the r² of every one of them but the diagonal into the
// maximum of the tile it lies in, a tile at a time.
func (e *countsEpilogue) row(cnt []uint32, gi, j int) {
	c, r := e.c, gi-e.c.I0
	if j == gi {
		// The diagonal cell (r² = 1 but for rounding) is stored, never in a
		// maximum: the bound is over pairs of two SNPs.
		_, stride := c.Tile(0)
		if at := r*stride + r; e.wide {
			c.C32[at] = cnt[0]
		} else {
			c.C16[at] = uint16(cnt[0])
		}
		cnt, j = cnt[1:], j+1
	}
	pa, va := e.conv.p[gi], e.conv.tab[gi]
	for len(cnt) > 0 {
		k := (j - c.I0) / c.TileCols
		col := j - c.I0 - k*c.TileCols
		off, stride := c.Tile(k)
		at, n := off+r*stride+col, min(len(cnt), stride-col)
		colFreq, colVar := e.conv.p[j:][:n], e.conv.tab[j:][:n]
		if e.wide {
			c.TileMax[k] = countsRowGo(c.C32[at:][:n], cnt[:n], colFreq, colVar, e.conv.inv, pa, va, c.TileMax[k])
		} else {
			c.TileMax[k] = countsRow16(c.C16[at:][:n], cnt[:n], colFreq, colVar, e.conv.inv, pa, va, c.TileMax[k])
		}
		cnt, j = cnt[n:], j+n
	}
}

// countsRowGo is the Go loop of the counts epilogue's rows: dst[c] =
// cnt[c] narrowed to dst's width, and the fold of every cell's exact r² —
// scalarR2Exact's operation sequence — into m, which it returns: a value
// replaces m only when greater, so a NaN never enters it.
func countsRowGo[T uint16 | uint32](dst []T, cnt []uint32, colFreq, colVar []float64, inv, pa, va, m float64) float64 {
	dst, colFreq, colVar = dst[:len(cnt)], colFreq[:len(cnt)], colVar[:len(cnt)]
	for c, n := range cnt {
		dst[c] = T(n)
		d := float64(n)*inv - pa*colFreq[c]
		var v float64
		if den := va * colVar[c]; den > 0 {
			v = d * d / den
		}
		if v > m {
			m = v
		}
	}
	return m
}

// countsRow16 stores one run of a row narrowed to uint16 and returns the
// greatest of m and the exact r² over the run: the row kernel's whole
// groups of eight (countsVector16), then the Go loop over the tail, each
// folding into the maximum the one before it left. Every r² of this loop is
// +0, positive or NaN, never −0, and a NaN never enters the maximum, so it
// does not depend on the order the cells are folded in. Wide counts
// (N > 65 535) take the Go loop alone: no workload stores them.
func countsRow16(dst []uint16, cnt []uint32, colFreq, colVar []float64, inv, pa, va, m float64) float64 {
	k, m := countsVector16(dst, cnt, colFreq, colVar, inv, pa, va, m)
	return countsRowGo(dst[k:], cnt[k:], colFreq[k:], colVar[k:], inv, pa, va, m)
}

// CountConverter converts joint counts to D, r² or D′ bit-identically to
// Matrix: the same row code (denseEpilogue.convert), over frequencies and
// variance factors built from the allele counts exactly as Matrix builds
// them from the bit matrix. r² is the exact quotient.
type CountConverter struct {
	e denseEpilogue
}

// NewCountConverter returns the converter for a dataset of samples
// sequences whose SNPs carry alleles[i] derived alleles.
func NewCountConverter(alleles []uint32, samples int) *CountConverter {
	p := frequencies(alleles, samples)
	tab := varTable(p)
	c := &CountConverter{denseEpilogue{rowFreqs: p, colFreqs: p, rowTab: tab, colTab: tab}}
	if samples > 0 {
		c.e.inv = 1 / float64(samples)
	}
	return c
}

// Row writes measure m (exactly one of MeasureD, MeasureR2, MeasureDPrime)
// of the pairs (i, j0+c) to out[c], from their joint counts cnt[c].
func (c *CountConverter) Row(m Measure, out []float64, cnt []uint32, i, j0 int) {
	c.e.convert(m, out, cnt, i, j0)
}

// frequencies returns alleles[i]/samples: bitmat.Matrix.AlleleFrequency's
// value, bit for bit, for a SNP of that many derived alleles.
func frequencies(alleles []uint32, samples int) []float64 {
	p := make([]float64, len(alleles))
	if samples == 0 {
		return p
	}
	for i, a := range alleles {
		p[i] = float64(a) / float64(samples)
	}
	return p
}
