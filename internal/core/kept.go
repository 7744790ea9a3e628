package core

import (
	"math"
	"math/bits"
	"slices"
	"sync"
)

// This file implements the kept epilogue, the third fused epilogue beside
// denseEpilogue and maskedEpilogue: it converts each row run like the dense
// one and emits only the joint counts of the cells with |v| ≥ τ, as runs of
// ascending columns, so a consumer that stores only those (a pruned store)
// never holds the rest. A kept scan (StreamSourceKept) merges a stripe's
// runs into one row-CSR KeptStripe.

// KeptStripe is one stripe of a kept scan in row-CSR: the delivered cells
// of SNP rows [I0, I0+Rows) whose |v| ≥ τ. Row r's survivors are
// Cols[RowPtr[r]:RowPtr[r+1]] — global SNP columns, strictly ascending —
// with their joint counts at the same positions of Counts; a reader gets
// v back from a count with CountConverter. A row's delivered range
// is the float scan's (StreamSource): from its own diagonal to the band
// edge in a triangular scan, all n columns otherwise.
type KeptStripe struct {
	I0, Rows int
	RowPtr   []int
	Cols     []int32
	Counts   []uint32
	// InFlight is how many stripes the scan computed at once, each
	// collecting its survivors in a list of its own until its turn to be
	// delivered (StreamSourceKept).
	InFlight int
}

// Bytes is the stripe's size as held: its row pointers and survivors.
func (k *KeptStripe) Bytes() int64 {
	return int64(len(k.RowPtr))*bits.UintSize/8 + int64(len(k.Cols))*4 + int64(len(k.Counts))*4
}

// ScanBytes is what the scan holds besides the sink's stripes when every
// stripe in flight is this one's size: a survivor list of a column and a
// count per survivor for each of them. The largest stripe's ScanBytes
// bounds the scan's survivor lists at any moment, growth slack aside.
func (k *KeptStripe) ScanBytes() int64 {
	return int64(k.InFlight) * int64(len(k.Cols)) * (4 + 4)
}

// KeptSink receives a kept scan a stripe at a time, in stripe order. A
// sink declares its threshold, and the scan delivers only the cells that
// reach it; having no float stripe to fill, the scan runs several stripes
// at once (see StreamSourceKept).
type KeptSink interface {
	// Threshold is τ: a cell is delivered iff |v| ≥ τ, so never a NaN.
	Threshold() float64
	// Alleles is handed every SNP's derived-allele count once, before any
	// stripe, as CountSink's is.
	Alleles(counts []uint32)
	// KeptBuffer returns the stripe the next finished stripe is merged
	// into. It is called once per stripe, in stripe order, once that stripe
	// is computed, and may block (the sink's back-pressure on the scan).
	// Its slices are resized by the merge and need not be cleared.
	KeptBuffer() *KeptStripe
	// KeptDone is told that the stripe from the last KeptBuffer is
	// complete, after which the scan never touches it again.
	KeptDone(k *KeptStripe)
}

// keep is the kept scan's predicate: a cell survives iff |v| ≥ τ. It is a
// pure value predicate — no positional state, no quota — so values that
// tie exactly at the threshold are kept whatever the scan order or
// schedule, and a NaN is never kept.
func keep(v, tau float64) bool {
	return math.Abs(v) >= tau
}

// keepScalar stores the cells of row that keep at the front of cols and
// counts, column col0+c and count cnt[c] for cell c, and returns how many
// it stored: the selection of every row the fused kernel does not take — D,
// D′, fast r², and exact r² on a host without AVX-512F.
func keepScalar(cols []int32, counts []uint32, row []float64, cnt []uint32, tau float64, col0 int) int {
	k := 0
	for c, v := range row {
		if keep(v, tau) {
			cols[k], counts[k] = int32(col0+c), cnt[c]
			k++
		}
	}
	return k
}

// skipBound returns the bound below which keepR2Exact skips a group of
// eight undivided: skip = fl(τ·(1−2⁻⁴⁰)), a group skipped when
// fl(d·d) < fl(skip·den) in all its lanes. That never drops a cell the
// exact quotient keeps: three roundings (skip, skip·den, the quotient) each
// move a value by at most a factor 1+2⁻⁵³, and 2⁻⁴⁰ covers them, so every
// skipped cell's fl(d·d/den) lies below τ's predecessor. Where skip·den is
// subnormal its absolute error is half the spacing both sides of the
// compare share, and the argument still holds. It needs a normal τ: τ = 0,
// a subnormal τ, and a τ that is negative, infinite or NaN skip nothing (0).
func skipBound(tau float64) float64 {
	if tau >= 0x1p-1022 && tau <= math.MaxFloat64 {
		return tau * (1 - 0x1p-40)
	}
	return 0
}

// keptRun is one row run's survivors of one row: n cells of stripe row
// row, the first at stripe column col, stored at keeper.cols/counts[off:].
type keptRun struct {
	row, col int32
	off, n   int
}

// keeper collects one stripe's survivors as the kept epilogue emits them,
// in the order the driver finishes its row runs, and merges them into a
// KeptStripe. It is scan scratch, recycled through keeperPool with every
// buffer it grew.
type keeper struct {
	i0, rows int
	colBase  int // global column of stripe column 0
	width    int // stripe columns
	cols     []int32
	counts   []uint32
	runs     []keptRun
	// Merge and conversion scratch.
	sorted []keptRun
	count  []int
	row    []float64
}

var keeperPool = sync.Pool{New: func() any { return new(keeper) }}

// reset readies the keeper for the stripe of rows [i0, i0+rows) whose
// stripe column 0 is global column colBase, width columns wide.
func (k *keeper) reset(i0, rows, colBase, width int) {
	k.i0, k.rows, k.colBase, k.width = i0, rows, colBase, width
	k.cols, k.counts, k.runs = k.cols[:0], k.counts[:0], k.runs[:0]
}

// keepRoom is how many cells of cols and counts the selection of an n-cell
// row may write: the fused kernel stores whole groups of eight.
func keepRoom(n int) int { return (n + 7) &^ 7 }

// room returns cols and counts windows of n cells past the survivors so
// far, growing both to fit as append does.
func (k *keeper) room(n int) ([]int32, []uint32) {
	at := len(k.cols)
	k.cols, k.counts = slices.Grow(k.cols, n), slices.Grow(k.counts, n)
	return k.cols[at : at+n], k.counts[at : at+n]
}

// commit records the kept cells of one row's run, the first n of the last
// room, at global row gi whose run starts at global column c0.
func (k *keeper) commit(gi, c0, n int) {
	if n == 0 {
		return
	}
	at := len(k.cols)
	k.runs = append(k.runs, keptRun{row: int32(gi - k.i0), col: int32(c0 - k.colBase), off: at, n: n})
	k.cols, k.counts = k.cols[:at+n], k.counts[:at+n]
}

// merge writes the stripe's survivors into dst in row-CSR. The runs are
// ordered by a counting sort on column, then a stable one on row — least
// significant key first — so each row's runs, disjoint column ranges, come
// out in ascending column order whatever order the driver finished them in.
func (k *keeper) merge(dst *KeptStripe) {
	dst.I0, dst.Rows = k.i0, k.rows
	k.sorted = countSort(k.sorted, k.runs, &k.count, k.width, func(r keptRun) int { return int(r.col) })
	k.runs = countSort(k.runs, k.sorted, &k.count, k.rows, func(r keptRun) int { return int(r.row) })

	ptr := grow(dst.RowPtr, k.rows+1)
	clear(ptr)
	for _, r := range k.runs {
		ptr[r.row+1] += r.n
	}
	for i := 1; i < len(ptr); i++ {
		ptr[i] += ptr[i-1]
	}
	nnz := ptr[k.rows]
	dst.RowPtr, dst.Cols, dst.Counts = ptr, grow(dst.Cols, nnz), grow(dst.Counts, nnz)
	at := 0
	for _, r := range k.runs {
		copy(dst.Cols[at:], k.cols[r.off:r.off+r.n])
		copy(dst.Counts[at:], k.counts[r.off:r.off+r.n])
		at += r.n
	}
}

// countSort returns src ordered stably by key ∈ [0, buckets), written over
// dst's storage; count is its scratch.
func countSort(dst, src []keptRun, count *[]int, buckets int, key func(keptRun) int) []keptRun {
	c := grow(*count, buckets+1)
	clear(c)
	for _, r := range src {
		c[key(r)+1]++
	}
	for i := 1; i < len(c); i++ {
		c[i] += c[i-1]
	}
	dst = grow(dst, len(src))
	for _, r := range src {
		b := key(r)
		dst[c[b]] = r
		c[b]++
	}
	*count = c
	return dst
}

// grow returns s resized to n elements, reallocated only when its capacity
// is short; the contents are not kept.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// keptEpilogue is the fused epilogue of one panel of a kept scan: it
// converts each row run's delivered cells — clipped to the row's diagonal in
// a triangular scan and to its band edge — and hands the counts of the ones
// that keep to the stripe's keeper. Exact r² converts and selects in one pass
// (keepR2Exact); D, D′ and fast r² convert with the dense epilogue's row
// code into scratch and select from it (keepScalar). It must run on one
// worker: the keeper is not shared-safe, and a kept scan makes every driver
// call with Threads = 1.
type keptEpilogue struct {
	conv       *denseEpilogue // frequencies, tables and conversion
	meas       Measure        // the scan's one statistic
	tau, skip  float64        // the sink's threshold and its skipBound
	row0, col0 int            // global row and column of the call's row and column 0
	sc         *scan
	k          *keeper
}

// RowRun is the blis.Epilogue hook: each row of the run, clipped to its
// delivered columns, converted and selected.
func (e *keptEpilogue) RowRun(_ int, t []uint32, ldt, i0, j0, mm, nn int) {
	for r := 0; r < mm; r++ {
		gi := e.row0 + i0 + r
		from, to := j0, min(j0+nn, e.sc.opt.rowEndCol(gi, e.sc.n)-e.col0)
		if e.sc.opt.Triangular {
			from = max(from, gi-e.col0)
		}
		if from >= to {
			continue
		}
		n := e.row(t[r*ldt+from-j0:][:to-from], i0+r, from)
		e.k.commit(gi, e.col0+from, n)
	}
}

// row selects the kept cells of call-local row gi, columns [j0,
// j0+len(trow)), into the keeper's room and returns how many it kept: by
// the fused kernel for exact r², else converted into scratch by the dense
// epilogue's row code and selected from there by keepScalar.
func (e *keptEpilogue) row(trow []uint32, gi, j0 int) int {
	n := len(trow)
	cols, counts := e.k.room(keepRoom(n))
	c0 := e.col0 + j0
	if e.meas == MeasureR2 && !e.conv.fast {
		c := e.conv
		if done, kept := keepR2Exact(cols, counts, trow, c.colFreqs[j0:][:n], c.colTab[j0:][:n],
			c.inv, c.rowFreqs[gi], c.rowTab[gi], e.skip, e.tau, c0); done == n {
			return kept
		}
	}
	e.k.row = grow(e.k.row, n)
	e.conv.convert(e.meas, e.k.row, trow, gi, j0)
	return keepScalar(cols, counts, e.k.row, trow, e.tau, c0)
}
