package core

import (
	"fmt"
	"sync"
	"time"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
)

// This file implements the panel-pair scheduler, the one striped scan
// under Stream and StreamSource, over any bitmat.Source (an mmap'd or
// windowed .ldbm file, or a resident matrix behind MemSource). The stripe ×
// column-panel triangle is walked with a dedicated prefetcher goroutine
// reading — or, for mmap'd sources, MADV_WILLNEED-ing — the panels ahead
// of the compute loop, so disk I/O for panel k+1 overlaps the GEMM + fused
// epilogue on panel k. A resident source is fetched one panel wide (see
// StreamOptions.IOPanelSNPs). Per-row values do not depend on the source
// or its panel width: counts are full-K dot products independent of column
// paneling, and the fused epilogue's expression shapes are per-cell, so
// the decomposition cannot perturb a single bit.
//
// Memory is bounded by the stripe (StripeRows × n float64 values), the
// double-buffered panel pools (2 A-stripes + 2 B-panels of packed words in
// windowed mode; zero-copy views in mmap mode), and the O(n) frequency
// vector — never by the n² output or the full bit matrix.

// oocReq is one panel fetch in the scheduler's walk order: the A stripe
// for each row block, then every B column panel it multiplies against.
type oocReq struct {
	lo, hi int
	a      bool // A-stripe (row block) vs B column panel
}

// oocPanel is a fetched panel handed from the prefetcher to the compute
// loop, with the pool buffer to recycle once the GEMM is done.
type oocPanel struct {
	m   *bitmat.Matrix
	buf *bitmat.Matrix
	err error
}

// SourceAlleleFrequencies computes the per-SNP allele frequencies of a
// source in one panel-by-panel pass, bit-identical to AlleleFrequencies
// on the resident matrix.
func SourceAlleleFrequencies(src bitmat.Source, panelSNPs int) ([]float64, error) {
	n := src.NumSNPs()
	p := make([]float64, n)
	if panelSNPs < 1 {
		panelSNPs = 1
	}
	var buf bitmat.Matrix
	for lo := 0; lo < n; lo += panelSNPs {
		hi := min(lo+panelSNPs, n)
		m, err := src.Panel(lo, hi, &buf)
		if err != nil {
			return nil, err
		}
		for i := 0; i < m.SNPs; i++ {
			p[lo+i] = m.AlleleFrequency(i)
		}
	}
	return p, nil
}

// StreamSource is Stream for a bitmat.Source: it computes the same rows,
// delivers them through the same visit contract, and produces bit-
// identical values — but the bit matrix is fetched panel by panel, so the
// scan runs on datasets that never fit in memory. Every source runs the
// same double-buffered panel-pair schedule; only a resident MemSource's
// panel width differs (see StreamOptions.IOPanelSNPs).
//
// Like Stream it rejects KeepCounts: the dense count matrix is what
// streaming exists to avoid.
func StreamSource(src bitmat.Source, opt StreamOptions, visit func(i, j0 int, row []float64)) error {
	v := &rowVisitor{opt: opt, n: src.NumSNPs(), visit: visit}
	defer v.release()
	return StreamSourceStripes(src, opt, v)
}

// StreamSourceStripes is the scan under StreamSource and Stream with
// stripe-level delivery: the same schedule and the same bits, each stripe
// computed into the buffer sink supplies and handed back whole (see
// StripeSink). It returns only once its prefetcher has exited, so no
// Source.Panel call is in flight or starts after it returns, error or not.
func StreamSourceStripes(src bitmat.Source, opt StreamOptions, sink StripeSink) error {
	if err := opt.check(); err != nil {
		return err
	}
	n := src.NumSNPs()
	samples := src.NumSamples()
	if samples == 0 && n > 0 {
		return fmt.Errorf("core: streaming LD with zero samples")
	}
	stripe := opt.stripeRows()
	if stripe < 1 {
		return fmt.Errorf("core: invalid StripeRows %d", stripe)
	}
	lo, hi, err := opt.rowWindow(n)
	if err != nil {
		return err
	}
	// A resident matrix is fetched one panel wide: its panels are zero-copy
	// views, so a narrower cut would only add driver calls, and handing
	// them over reads nothing (no panel I/O or stall is recorded).
	panel := opt.ioPanel()
	_, resident := src.(*bitmat.MemSource)
	if resident {
		panel = max(n, 1)
	}
	p, err := SourceAlleleFrequencies(src, panel)
	if err != nil {
		return err
	}

	// The full fetch schedule, in exactly the order the compute loop will
	// consume panels. Generating it up front keeps the prefetcher a dumb
	// cursor that is always N buffered panels ahead of the consumer.
	// A banded scan caps each stripe's column panels at the band edge —
	// this is where far-off-diagonal panels drop out of existence: never
	// scheduled, never fetched, never multiplied. The compute loop below
	// derives its panel walk from the same stripeColEnd, so producer and
	// consumer always agree on the schedule. What a band skipped is counted
	// the same way for every source: all the cells past the band edge, and
	// the IOPanelSNPs-wide panels of the unbanded walk that hold none of
	// the band, whatever width this source is fetched at.
	var schedule []oocReq
	for i0 := lo; i0 < hi; i0 += stripe {
		rows := min(stripe, hi-i0)
		schedule = append(schedule, oocReq{i0, i0 + rows, true})
		bLo, bHi := 0, n
		if opt.Triangular {
			bLo = i0 + rows
			bHi = opt.stripeColEnd(i0, rows, n)
		}
		for c := bLo; c < bHi; c += panel {
			schedule = append(schedule, oocReq{c, min(c+panel, bHi), false})
		}
		if n > bHi {
			// The unbanded walk's panels of [bLo, n) less those of [bLo, bHi).
			w := opt.ioPanel()
			skipped := (n-bLo+w-1)/w - (bHi-bLo+w-1)/w
			blis.NoteBandSkip(int64(skipped), int64(rows)*int64(n-bHi))
		}
	}

	words := bitmat.WordsFor(samples)
	freeA := make(chan *bitmat.Matrix, 2)
	freeB := make(chan *bitmat.Matrix, 2)
	for i := 0; i < 2; i++ {
		freeA <- &bitmat.Matrix{}
		freeB <- &bitmat.Matrix{}
	}
	fetched := make(chan oocPanel, 2)
	done := make(chan struct{})
	var prefetcher sync.WaitGroup
	defer func() {
		close(done)
		prefetcher.Wait()
	}()

	prefetcher.Add(1)
	go func() {
		defer prefetcher.Done()
		defer close(fetched)
		for _, r := range schedule {
			pool := freeB
			if r.a {
				pool = freeA
			}
			var buf *bitmat.Matrix
			select {
			case buf = <-pool:
			case <-done:
				return
			}
			// For mmap'd sources this starts kernel readahead; Panel is
			// then a zero-copy view. For windowed sources Panel is the
			// read itself, into the recycled pool buffer.
			src.Prefetch(r.lo, r.hi)
			m, err := src.Panel(r.lo, r.hi, buf)
			if !resident {
				blis.NotePanelRead(int64(r.hi-r.lo) * int64(words) * 8)
			}
			select {
			case fetched <- oocPanel{m: m, buf: buf, err: err}:
			case <-done:
				return
			}
		}
	}()

	// recv pulls the next scheduled panel, charging wall time to the
	// prefetch-stall counter only when the compute loop actually blocks.
	recv := func() (oocPanel, error) {
		var pnl oocPanel
		var ok bool
		select {
		case pnl, ok = <-fetched:
		default:
			t0 := time.Now()
			pnl, ok = <-fetched
			if !resident {
				blis.NotePrefetchStall(time.Since(t0).Nanoseconds())
			}
		}
		if !ok {
			return pnl, fmt.Errorf("core: panel prefetcher exited early")
		}
		return pnl, pnl.err
	}

	scan := newStripeScan(opt, p, samples)
	for i0 := lo; i0 < hi; i0 += stripe {
		rows := min(stripe, hi-i0)
		a, err := recv()
		if err != nil {
			return err
		}
		sub := a.m
		base := 0
		width := n
		bLo, bHi := 0, n
		if opt.Triangular {
			base = i0
			bLo = i0 + rows
			bHi = opt.stripeColEnd(i0, rows, n)
			width = bHi - i0
		}
		v := sink.StripeBuffer(opt.StripeCells(stripe, i0, hi, n))[:rows*width]
		if opt.Triangular {
			e := scan.epilogue(v, width, i0, i0)
			if err := blis.SyrkEpilogue(opt.Blis, sub, e); err != nil {
				return err
			}
		}
		for c := bLo; c < bHi; c += panel {
			b, err := recv()
			if err != nil {
				return err
			}
			e := scan.epilogue(v[c-base:], width, i0, c)
			err = blis.GemmEpilogue(opt.Blis, sub, b.m, e)
			freeB <- b.buf
			if err != nil {
				return err
			}
		}
		freeA <- a.buf
		sink.StripeDone(i0, rows, width, v)
	}
	return nil
}
