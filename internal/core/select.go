package core

import (
	"math"
	"runtime"
	"slices"
	"sync"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
)

// This file implements the selection scan, the fourth fused epilogue
// beside the dense, kept and counts epilogues: a triangular r² scan that
// ranks pairs instead of handing any out. Each row run is converted to
// fast r² — by the fused selection kernel on AVX-512F, else by the dense
// epilogue's row code into scratch — and its candidates are offered to the
// top-K heap of the driver worker that computed it, so no float stripe is
// filled or walked. One stripe is in flight, its driver call on Threads
// workers, and each worker keeps its own heap, floor and significant
// count: a worker's floor only ever rises with what that worker has seen,
// so it needs no lock and drops no pair the global ranking keeps (every
// pair of the global top K is in the top K of the worker that saw it).
// The heaps are merged by RanksBefore once the scan is over. The scan holds
// O(K × workers) pairs and one row of scratch per worker, never a stripe.

// selWorker is one driver worker's selection state, and its scratch.
type selWorker struct {
	// h holds the worker's best pairs so far, at most the selector's k, as
	// a heap whose root ranks after every other (pairHeap's order).
	h pairHeap
	// floor is the root's r² once h is full, −Inf before: a cell below it
	// ranks after every pair h keeps and is not offered. NaN compares
	// false both ways and is offered.
	floor float64
	// tested and significant count the cells this worker saw, and those at
	// or above the cut.
	tested, significant int64
	row                 []float64 // a row's r² where the Go loops convert it
	cols                []int32   // a row's candidates: columns and r²
	vals                []float64
	_                   [64]byte // no false sharing between the workers' counters
}

// selector is a selection scan's state: the ranking's size, the χ² cut in
// r², and one selWorker per driver worker. It is recycled through
// selectorPool with every buffer it grew.
type selector struct {
	k       int
	cut     float64
	workers []selWorker
}

var selectorPool = sync.Pool{New: func() any { return new(selector) }}

// getSelector returns a pooled selector keeping the k first pairs at or
// above cut; selectScan sizes its workers.
func getSelector(k int, cut float64) *selector {
	s := selectorPool.Get().(*selector)
	s.k, s.cut = k, cut
	return s
}

// reset readies one selWorker for each of workers driver workers.
func (s *selector) reset(workers int) {
	if cap(s.workers) < workers {
		s.workers = append(s.workers[:cap(s.workers)], make([]selWorker, workers-cap(s.workers))...)
	}
	s.workers = s.workers[:workers]
	for w := range s.workers {
		sw := &s.workers[w]
		sw.h, sw.floor, sw.tested, sw.significant = sw.h[:0], math.Inf(-1), 0, 0
	}
}

// merge returns the scan's k first pairs in canonical order — the union of
// the workers' heaps ranked by RanksBefore, nil when there are none — and
// every worker's tested and significant cells. The first worker's heap
// becomes the union.
func (s *selector) merge() (pairs []SignificantPair, tested, significant int64) {
	all := s.workers[0].h
	for w := range s.workers {
		if w > 0 {
			all = append(all, s.workers[w].h...)
		}
		tested += s.workers[w].tested
		significant += s.workers[w].significant
	}
	s.workers[0].h = all
	slices.SortFunc(all, func(a, b SignificantPair) int {
		switch {
		case RanksBefore(a.R2, a.I, a.J, b.R2, b.I, b.J):
			return -1
		case RanksBefore(b.R2, b.I, b.J, a.R2, a.I, a.J):
			return 1
		}
		return 0
	})
	return append([]SignificantPair(nil), all[:min(len(all), s.k)]...), tested, significant
}

// selectScan runs the selection scan of src's pairs (i, j), i < j, with i
// in [RowStart, RowEnd), into sel, after readying one selWorker for each
// of the scan's driver workers (Threads, GOMAXPROCS when 0; a negative
// Threads is the driver's to reject). opt's measures, Exact and Triangular
// are ignored: the scan converts fast r², triangularly.
func selectScan(src bitmat.Source, opt StreamOptions, sel *selector) error {
	opt.Measures, opt.Exact, opt.Triangular = MeasureR2, false, true
	if opt.Blis.Threads == 0 {
		opt.Blis.Threads = runtime.GOMAXPROCS(0)
	}
	sc, err := newScan(src, opt, false)
	if err != nil {
		return err
	}
	defer sc.release()
	sel.reset(max(opt.Blis.Threads, 1))
	epi := &selectEpilogue{sc: sc, sel: sel}
	conv := sc.conv(opt)
	return sc.run(1, func() stripeOut { return &selectOut{conv: conv, epi: epi} })
}

// selectOut is the stripe worker's side of a selection scan: one reused
// selection epilogue, and nothing to deliver.
type selectOut struct {
	conv *stripeScan
	epi  *selectEpilogue
	i0   int
}

func (o *selectOut) open(i0, _, _ int) { o.i0 = i0 }

func (o *selectOut) epilogue(col0 int) blis.Epilogue {
	o.epi.conv = o.conv.epilogue(nil, 0, o.i0, col0)
	o.epi.row0, o.epi.col0 = o.i0, col0
	return o.epi
}

func (o *selectOut) deliver() {}

func (o *selectOut) release() {}

// selectEpilogue is the fused epilogue of one panel of a selection scan:
// each row run's pairs — a row's cells right of its diagonal, up to its
// band edge — converted to fast r² and offered to the calling worker's
// heap. Workers only touch their own selWorker, so runs of any panel may
// arrive on any worker at once.
type selectEpilogue struct {
	conv       *denseEpilogue // frequencies, tables and conversion
	row0, col0 int            // global row and column of the call's row and column 0
	sc         *scan
	sel        *selector
}

// RowRun is the blis.Epilogue hook.
func (e *selectEpilogue) RowRun(worker int, t []uint32, ldt, i0, j0, mm, nn int) {
	w := &e.sel.workers[worker]
	for r := 0; r < mm; r++ {
		gi := e.row0 + i0 + r
		from, to := max(j0, gi+1-e.col0), min(j0+nn, e.sc.opt.rowEndCol(gi, e.sc.n)-e.col0)
		if from < to {
			e.row(w, t[r*ldt+from-j0:][:to-from], i0+r, from)
		}
	}
}

// row selects call-local row gi, columns [j0, j0+len(trow)): the fused
// kernel converts it and stores the candidates against the floor at the
// row's start, or the dense epilogue's Go loop converts it into scratch
// and selectScalar picks the same ones from there. Each candidate is then
// offered against the worker's current floor.
func (e *selectEpilogue) row(w *selWorker, trow []uint32, gi, j0 int) {
	n, c, cut := len(trow), e.conv, e.sel.cut
	w.cols, w.vals = grow(w.cols, keepRoom(n)), grow(w.vals, keepRoom(n))
	c0 := e.col0 + j0
	done, cands, below := selectR2Fast(w.cols, w.vals, trow, c.colFreqs[j0:][:n], c.colTab[j0:][:n],
		c.inv, c.rowFreqs[gi], c.rowTab[gi], w.floor, cut, c0)
	if done != n {
		w.row = grow(w.row, n)
		c.convert(MeasureR2, w.row, trow, gi, j0)
		cands, below = selectScalar(w.cols, w.vals, w.row, w.floor, cut, c0)
	}
	w.tested += int64(n)
	w.significant += int64(n - below)
	i, k := e.row0+gi, e.sel.k
	for x, r2 := range w.vals[:cands] {
		if r2 < w.floor {
			continue
		}
		p := SignificantPair{I: i, J: int(w.cols[x]), R2: r2}
		if len(w.h) < k {
			w.h.push(p)
		} else if root := w.h[0]; RanksBefore(r2, p.I, p.J, root.R2, root.I, root.J) {
			w.h.replaceRoot(p)
		}
		if len(w.h) == k {
			w.floor = w.h[0].R2
		}
	}
}

// selectScalar is the Go loop of the selection rows: of row's cells —
// column col0+c for cell c — it counts those below cut and stores the
// others that are not below floor at the front of cols and vals, and
// returns how many it stored and how many it counted. NaN is below
// neither.
func selectScalar(cols []int32, vals, row []float64, floor, cut float64, col0 int) (cands, below int) {
	for c, v := range row {
		switch {
		case v < cut:
			below++
		case v < floor:
		default:
			cols[cands], vals[cands] = int32(col0+c), v
			cands++
		}
	}
	return cands, below
}

// pairHeap is a heap of SignificantPair in reverse canonical order: the
// root is the pair every other one RanksBefore.
type pairHeap []SignificantPair

// after reports whether h[a] ranks after h[b], the heap's order.
func (h pairHeap) after(a, b int) bool {
	return RanksBefore(h[b].R2, h[b].I, h[b].J, h[a].R2, h[a].I, h[a].J)
}

// push adds p.
func (h *pairHeap) push(p SignificantPair) {
	*h = append(*h, p)
	s := *h
	for c := len(s) - 1; c > 0; {
		up := (c - 1) / 2
		if !s.after(c, up) {
			break
		}
		s[c], s[up] = s[up], s[c]
		c = up
	}
}

// replaceRoot puts p in the root's place.
func (h pairHeap) replaceRoot(p SignificantPair) {
	h[0] = p
	for c := 0; ; {
		down := 2*c + 1
		if down >= len(h) {
			return
		}
		if r := down + 1; r < len(h) && h.after(r, down) {
			down = r
		}
		if !h.after(down, c) {
			return
		}
		h[c], h[down] = h[down], h[c]
		c = down
	}
}
