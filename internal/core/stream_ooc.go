package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/bufpool"
)

// This file implements the panel-pair scheduler, the one striped scan
// under Stream, StreamSource, the kept, the counts and the selection scans,
// over any bitmat.Source (an mmap'd or windowed .ldbm file, or a resident
// matrix behind MemSource).
// The stripe × column-panel triangle is walked with a dedicated prefetcher
// goroutine reading — or, for mmap'd sources, MADV_WILLNEED-ing — the
// schedule's panels in order and routing each to its stripe's worker, up to
// readAheadBytes ahead of every worker: disk I/O overlaps the GEMM + fused
// epilogue, and a worker's next stripe is read while the stripes before it
// still compute, so every stripe in flight is fed. A stripe is one driver
// call (blis.StripeEpilogue): its A panel is packed once and every B panel
// streams past it as it arrives. A resident source is fetched one panel
// wide (see StreamOptions.IOPanelSNPs). Per-row values do not depend
// on the source or its panel width: counts are full-K dot products
// independent of column paneling, and the fused epilogue's expression
// shapes are per-cell, so the decomposition cannot perturb a single bit.
//
// Memory is bounded by the stripe (StripeRows × n float64 values, or per
// stripe in flight a kept stripe's survivors or a counts stripe's narrowed
// counts; a selection scan holds only its workers' heaps), the panel
// buffers (for W stripes in flight in windowed mode,
// W × (readAheadBytes + two panels) of packed words, four panels for one;
// zero-copy views in mmap mode), and the O(n) frequency vector — never by
// the n² output or the full bit matrix.

// oocReq is one panel fetch in the scheduler's walk order: the A stripe
// for each row block, then every B column panel it multiplies against.
type oocReq struct {
	lo, hi int
	stripe int // index of the stripe it belongs to
}

// oocPanel is a fetched panel handed from the prefetcher to a stripe
// worker, with the pool buffer to recycle once the GEMM is done.
type oocPanel struct {
	m   *bitmat.Matrix
	buf *bitmat.Matrix
	err error
}

// panelPool recycles the prefetcher's panel buffers (*bitmat.Matrix)
// across scans: a windowed source reads each panel into one, and the
// next scan's panels of the same shape fit it.
var panelPool = sync.Pool{New: func() any { return new(bitmat.Matrix) }}

// sourceAlleles returns the derived-allele frequencies of SNPs [lo, hi),
// SNP lo first, in one panel-by-panel pass, bit-identical to
// AlleleFrequencies on the resident matrix, and stores each one's
// derived-allele count at the same index of counts unless that is nil.
// The frequencies are a bufpool.Floats buffer.
func sourceAlleles(src bitmat.Source, lo, hi, panelSNPs int, counts []uint32) ([]float64, error) {
	samples := float64(src.NumSamples())
	p := bufpool.Floats.Get(hi - lo)
	panelSNPs = max(panelSNPs, 1)
	var buf bitmat.Matrix
	for c := lo; c < hi; c += panelSNPs {
		m, err := src.Panel(c, min(c+panelSNPs, hi), &buf)
		if err != nil {
			bufpool.Floats.Put(p)
			return nil, err
		}
		for i := 0; i < m.SNPs; i++ {
			n, f := m.DerivedCount(i), 0.0
			if samples > 0 {
				f = float64(n) / samples
			}
			p[c-lo+i] = f
			if counts != nil {
				counts[c-lo+i] = uint32(n)
			}
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
// Each stripe is computed into one pooled float buffer and visited row
// by row. One stripe is in flight at a time, its driver call on Threads
// workers: a float stripe is as wide as the rows it holds. It returns only
// once its prefetcher has exited, so no Source.Panel call is in flight or
// starts after it returns, error or not.
//
// Like Stream it rejects KeepCounts: the dense count matrix is what
// streaming exists to avoid; StreamSourceCounts hands the counts over a
// stripe at a time instead.
func StreamSource(src bitmat.Source, opt StreamOptions, visit func(i, j0 int, row []float64)) error {
	v := &rowVisitor{opt: opt, n: src.NumSNPs(), visit: visit}
	defer v.release()
	sc, err := newScan(src, opt, false)
	if err != nil {
		return err
	}
	defer sc.release()
	conv := sc.conv(opt)
	return sc.run(1, func() stripeOut { return &floatOut{sink: v, sc: sc, conv: conv} })
}

// StreamSourceKept is the triangular scan for a sink that declares a
// threshold: the scan runs the kept epilogue (kept.go), which converts
// each row run in place and keeps only the joint counts of the cells with
// |v| ≥ τ, and hands each stripe over in row-CSR (KeptStripe), after the
// allele counts (KeptSink.Alleles). A kept count converts back to the
// float scan's cell bit for bit (CountConverter). With no float stripe to fill, Threads stripes
// run at once (GOMAXPROCS when Threads is 0, never more than the scan
// has), each one's driver call on a single worker (its keeper takes one
// run at a time, and a store build's panels are too small to pay for
// waking a second worker anyway), merged and handed over in stripe order.
// Each stripe in flight holds its survivors until its turn, so the scan's
// survivor lists reach the largest stripe's times the stripes in flight
// (KeptStripe.ScanBytes), on top of the sink's stripes. The panels are
// still read by the one prefetcher, in schedule order. A negative Threads
// is the driver's to reject, at the first call, as on the float scan. It
// returns only once its prefetcher and every stripe worker have exited.
func StreamSourceKept(src bitmat.Source, opt StreamOptions, sink KeptSink) error {
	sc, err := newScan(src, opt, true)
	if err != nil {
		return err
	}
	defer sc.release()
	inFlight := sc.oneWorkerStripes()
	tau := sink.Threshold()
	sink.Alleles(sc.alleles)
	conv := sc.conv(opt)
	return sc.run(inFlight, func() stripeOut {
		k := keeperPool.Get().(*keeper)
		return &keptOut{sink: sink, sc: sc, conv: conv, k: k, inFlight: inFlight,
			epi: keptEpilogue{meas: conv.stat(), tau: tau, skip: skipBound(tau), sc: sc, k: k}}
	})
}

// scan is one striped scan, resolved: its row window, panel width,
// frequencies and the full fetch schedule.
type scan struct {
	src                bitmat.Source
	opt                StreamOptions
	n, samples, stripe int
	lo, hi, stripes    int
	panel              int
	resident           bool
	alleles            []uint32  // counts and kept scans only
	p                  []float64 // frequencies of SNPs p0, p0+1, …, as far as the scan reads
	p0                 int
	tabs               [][]float64 // the r² tables of the scan's conversions
	schedule           []oocReq
	stripePanels       int // the most panels one stripe of the schedule fetches
}

// newScan resolves a scan of src; alleles keeps every SNP's allele count
// too (scan.alleles), which only counts and kept scans hand on.
func newScan(src bitmat.Source, opt StreamOptions, alleles bool) (*scan, error) {
	if err := opt.check(); err != nil {
		return nil, err
	}
	sc := &scan{src: src, opt: opt, n: src.NumSNPs(), samples: src.NumSamples(), stripe: opt.stripeRows()}
	n := sc.n
	if sc.samples == 0 && n > 0 {
		return nil, fmt.Errorf("core: streaming LD with zero samples")
	}
	if sc.stripe < 1 {
		return nil, fmt.Errorf("core: invalid StripeRows %d", sc.stripe)
	}
	var err error
	if sc.lo, sc.hi, err = opt.rowWindow(n); err != nil {
		return nil, err
	}
	sc.stripes = (sc.hi - sc.lo + sc.stripe - 1) / sc.stripe
	// A resident matrix is fetched one panel wide: its panels are zero-copy
	// views, so a narrower cut would only add driver calls, and handing
	// them over reads nothing (no panel I/O or stall is recorded).
	sc.panel = opt.ioPanel()
	_, sc.resident = src.(*bitmat.MemSource)
	if sc.resident {
		sc.panel = max(n, 1)
	}
	// A triangular scan reads the frequencies of its rows and of the columns
	// right of them only, [RowStart, n) or up to the band edge, so unless
	// its sink is handed the whole allele table that is all it counts.
	// Every frequency and table entry is a function of its own SNP alone,
	// so a row's values do not depend on where the range starts.
	to := n
	if alleles {
		sc.alleles = make([]uint32, n)
	} else if opt.Triangular {
		sc.p0, to = sc.lo, opt.stripeColEnd(sc.lo, sc.hi-sc.lo, n)
	}
	if sc.p, err = sourceAlleles(src, sc.p0, to, sc.panel, sc.alleles); err != nil {
		return nil, err
	}

	// The full fetch schedule, in exactly the order the stripe workers will
	// consume panels. Generating it up front keeps the prefetcher a dumb
	// cursor that is always N buffered panels ahead of the consumers.
	// A banded scan caps each stripe's column panels at the band edge —
	// this is where far-off-diagonal panels drop out of existence: never
	// scheduled, never fetched, never multiplied. The workers derive their
	// panel walk from the same span, so producer and consumers always agree
	// on the schedule. What a band skipped is counted the same way for
	// every source: all the cells past the band edge, and the
	// IOPanelSNPs-wide panels of the unbanded walk that hold none of the
	// band, whatever width this source is fetched at.
	for s := range sc.stripes {
		i0, rows := sc.rows(s)
		first := len(sc.schedule)
		sc.schedule = append(sc.schedule, oocReq{i0, i0 + rows, s})
		bLo, bHi := sc.span(i0, rows)
		for c := bLo; c < bHi; c += sc.panel {
			sc.schedule = append(sc.schedule, oocReq{c, min(c+sc.panel, bHi), s})
		}
		sc.stripePanels = max(sc.stripePanels, len(sc.schedule)-first)
		if n > bHi {
			// The unbanded walk's panels of [bLo, n) less those of [bLo, bHi).
			w := opt.ioPanel()
			skipped := (n-bLo+w-1)/w - (bHi-bLo+w-1)/w
			blis.NoteBandSkip(int64(skipped), int64(rows)*int64(n-bHi))
		}
	}
	return sc, nil
}

// rows returns stripe s's first row and height.
func (sc *scan) rows(s int) (i0, rows int) {
	i0 = sc.lo + s*sc.stripe
	return i0, min(sc.stripe, sc.hi-i0)
}

// span returns the columns of stripe i0's B panels: all n unless
// triangular, else from past its diagonal block to the band edge.
func (sc *scan) span(i0, rows int) (bLo, bHi int) {
	if !sc.opt.Triangular {
		return 0, sc.n
	}
	return i0 + rows, sc.opt.stripeColEnd(i0, rows, sc.n)
}

// conv returns the stripe conversion of the scan's frequencies for opt's
// measures. It is called before the scan runs, never from its workers.
func (sc *scan) conv(opt StreamOptions) *stripeScan {
	s := newStripeScan(opt, sc.p, sc.samples)
	s.p0 = sc.p0
	if s.tab != nil {
		sc.tabs = append(sc.tabs, s.tab)
	}
	return s
}

// release hands the scan's frequencies and the r² tables of its
// conversions back to bufpool.Floats, once the scan has returned and
// nothing converts with them.
func (sc *scan) release() {
	bufpool.Floats.Put(sc.p)
	for _, t := range sc.tabs {
		bufpool.Floats.Put(t)
	}
}

// oneWorkerStripes readies the scan to run Threads stripes at once
// (GOMAXPROCS when Threads is 0, never more than the scan has), each one's
// driver call on a single worker, and returns that stripe count. A
// negative Threads is left for the driver to reject at the first call.
func (sc *scan) oneWorkerStripes() int {
	threads := sc.opt.Blis.Threads
	if threads == 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if threads > 0 {
		sc.opt.Blis.Threads = 1 // the driver call's workers, not the stripes in flight
	}
	return max(1, min(threads, sc.stripes))
}

// base returns a stripe's column 0: SNP i0 in a triangular scan, else 0.
func (sc *scan) base(i0 int) int {
	if sc.opt.Triangular {
		return i0
	}
	return 0
}

// stripeOut is one stripe worker's side of the sink: where the epilogues of
// its stripe's driver call write, and how the finished stripe is handed
// over.
type stripeOut interface {
	// open readies stripe i0, rows × width, before any of it is computed.
	open(i0, rows, width int)
	// epilogue returns the epilogue of the stripe's panel whose column 0
	// is SNP col0. The driver asks for a panel's only once it has handed
	// over every cell of the one before, so it may reuse one epilogue.
	epilogue(col0 int) blis.Epilogue
	// deliver hands the stripe over; stripes are delivered in order.
	deliver()
	// release returns the worker's scratch once the scan is over.
	release()
}

// readAheadBytes is how far the prefetcher reads ahead of each of several
// stripe workers, in bytes of the scan's largest panel: a worker's queue
// holds that many panels, never fewer than two (and never more than one
// stripe has). A ledger-shape stripe's whole B span fits, so a worker
// starts its next stripe as soon as it finishes one.
const readAheadBytes = 4 << 20

// stripeRun is one run of a scan: the stripe workers, the panel buffers
// and channels between them and the prefetcher, and the stop signal.
type stripeRun struct {
	*scan
	workers int
	cfg     blis.Config // the driver calls' configuration, one a stripe
	// fetched[w] carries worker w's panels in schedule order, up to its
	// capacity ahead of it; free holds the panel buffers not in use, enough
	// for every worker's queue and the two panels it multiplies.
	free    chan *bitmat.Matrix
	fetched []chan oocPanel
	// turns[w] holds the one delivery token while it is worker w's turn.
	turns []chan struct{}
	stop  chan struct{} // closed by the first failure
}

// run computes every stripe on workers stripe workers, stripe s on worker
// s mod workers, and delivers them in order. One prefetcher reads the
// schedule's panels in order and routes each to its stripe's worker. The
// first error stops the prefetcher and every worker, and run returns it
// once all of them have exited.
func (sc *scan) run(workers int, out func() stripeOut) error {
	r := &stripeRun{scan: sc, workers: max(1, min(workers, sc.stripes)), cfg: sc.opt.Blis, stop: make(chan struct{})}
	cancel := func() {}
	if r.workers > 1 {
		// One worker's failure must also end the others' driver calls.
		parent := r.cfg.Ctx
		if parent == nil {
			parent = context.Background()
		}
		var ctx context.Context
		ctx, cancel = context.WithCancel(parent)
		defer cancel()
		r.cfg.Ctx = ctx
	}
	var (
		failOnce sync.Once
		firstErr error
	)
	fail := func(err error) {
		failOnce.Do(func() {
			firstErr = err
			close(r.stop)
			cancel()
		})
	}

	// Each worker's queue: with several, readAheadBytes of the largest
	// panel, at least two, and no more than a whole stripe's — so the
	// prefetcher reads past one worker's stripe to the next worker's at
	// once. A single worker has no other stripe to be fed, and two panels
	// hide a read.
	depth := 2
	if r.workers > 1 {
		panelBytes := max(sc.stripe, sc.panel) * bitmat.WordsFor(sc.samples) * 8
		depth = max(2, min(readAheadBytes/max(panelBytes, 1), sc.stripePanels))
	}
	r.free = make(chan *bitmat.Matrix, r.workers*(depth+2))
	bufs := make([]*bitmat.Matrix, cap(r.free))
	for i := range bufs {
		bufs[i] = panelPool.Get().(*bitmat.Matrix)
		r.free <- bufs[i]
	}
	defer func() {
		for _, m := range bufs {
			panelPool.Put(m)
		}
	}()
	r.fetched, r.turns = make([]chan oocPanel, r.workers), make([]chan struct{}, r.workers)
	for w := range r.workers {
		r.fetched[w] = make(chan oocPanel, depth)
		r.turns[w] = make(chan struct{}, 1)
	}
	r.turns[0] <- struct{}{}

	work := func(w int) {
		o := out()
		defer o.release()
		if err := r.work(w, o); err != nil {
			fail(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(r.workers)
	go func() {
		defer wg.Done()
		r.prefetch()
	}()
	for w := 1; w < r.workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	// Worker 0 is the caller, so a single-worker scan calls its sink where
	// the caller pools the sink's buffers: a sync.Pool hands a buffer back
	// most reliably to the P that put it.
	work(0)
	wg.Wait()
	return firstErr
}

// prefetch is the prefetcher: every panel of the schedule, in order, read
// into a free buffer and sent to its stripe's worker, until the schedule
// ends or the run stops.
func (r *stripeRun) prefetch() {
	words := bitmat.WordsFor(r.samples)
	for _, req := range r.schedule {
		var buf *bitmat.Matrix
		select {
		case buf = <-r.free:
		case <-r.stop:
			return
		}
		// For mmap'd sources this starts kernel readahead; Panel is then a
		// zero-copy view. For windowed sources Panel is the read itself,
		// into the recycled pool buffer.
		r.src.Prefetch(req.lo, req.hi)
		m, err := r.src.Panel(req.lo, req.hi, buf)
		if !r.resident {
			blis.NotePanelRead(int64(req.hi-req.lo) * int64(words) * 8)
		}
		select {
		case r.fetched[req.stripe%r.workers] <- oocPanel{m: m, buf: buf, err: err}:
		case <-r.stop:
			return
		}
	}
}

// work is stripe worker w: stripes w, w+workers, …, each computed from the
// panels routed to it and delivered when turns[w] says every earlier
// stripe has been. A stripe's error is returned at its turn too, so every
// stripe before it is delivered first, as a scan of one stripe at a time
// would have.
func (r *stripeRun) work(w int, o stripeOut) error {
	for s := w; s < r.stripes; s += r.workers {
		err := r.stripeOf(s, o, r.fetched[w])
		select {
		case <-r.turns[w]:
		case <-r.stop:
			return errStopped
		}
		if err != nil {
			return err
		}
		o.deliver()
		r.turns[(w+1)%r.workers] <- struct{}{}
	}
	return nil
}

// stripeOf computes stripe s into o from the panels routed to in, and
// returns their buffers.
func (r *stripeRun) stripeOf(s int, o stripeOut, in <-chan oocPanel) error {
	// recv pulls the next scheduled panel, charging wall time to the
	// prefetch-stall counter only when the worker actually blocks.
	recv := func() (oocPanel, error) {
		var pnl oocPanel
		select {
		case pnl = <-in:
		case <-r.stop:
			return pnl, errStopped
		default:
			t0 := time.Now()
			select {
			case pnl = <-in:
			case <-r.stop:
				return pnl, errStopped
			}
			if !r.resident {
				blis.NotePrefetchStall(time.Since(t0).Nanoseconds())
			}
		}
		return pnl, pnl.err
	}

	i0, rows := r.rows(s)
	a, err := recv()
	if err != nil {
		return err
	}
	defer func() { r.free <- a.buf }()
	bLo, bHi := r.span(i0, rows)
	o.open(i0, rows, bHi-r.base(i0))
	var diag blis.Epilogue
	if r.opt.Triangular {
		diag = o.epilogue(i0)
	}
	// One driver call a stripe: the diagonal block, then each B panel as
	// it arrives, its buffer freed once the driver has multiplied it.
	return blis.StripeEpilogue(r.cfg, a.m, diag, func(yield func(blis.Panel, error) bool) {
		for c := bLo; c < bHi; c += r.panel {
			b, err := recv()
			if err != nil {
				yield(blis.Panel{}, err)
				return
			}
			more := yield(blis.Panel{B: b.m, Epi: o.epilogue(c)}, nil)
			r.free <- b.buf
			if !more {
				return
			}
		}
	})
}

// errStopped is what a worker returns when another one's failure stopped
// the scan; run returns that first failure instead.
var errStopped = errors.New("core: scan stopped")

// floatOut delivers float stripes to a row visitor: the stripe epilogues
// write straight into the buffer it supplies.
type floatOut struct {
	sink *rowVisitor
	sc   *scan
	conv *stripeScan

	i0, rows, width int
	v               []float64
}

func (o *floatOut) open(i0, rows, width int) {
	o.i0, o.rows, o.width = i0, rows, width
	sc := o.sc
	o.v = o.sink.StripeBuffer(sc.opt.StripeCells(sc.stripe, i0, sc.hi, sc.n))[:rows*width]
}

func (o *floatOut) epilogue(col0 int) blis.Epilogue {
	return o.conv.epilogue(o.v[col0-o.sc.base(o.i0):], o.width, o.i0, col0)
}

func (o *floatOut) deliver() { o.sink.StripeDone(o.i0, o.rows, o.width, o.v) }

func (o *floatOut) release() {}

// keptOut collects a worker's stripes in a keeper through one reused kept
// epilogue (its calls run one at a time) and merges each into the buffer a
// KeptSink supplies.
type keptOut struct {
	sink     KeptSink
	sc       *scan
	conv     *stripeScan
	k        *keeper
	epi      keptEpilogue
	i0       int
	inFlight int
}

func (o *keptOut) open(i0, rows, width int) {
	o.i0 = i0
	o.k.reset(i0, rows, o.sc.base(i0), width)
}

func (o *keptOut) epilogue(col0 int) blis.Epilogue {
	o.epi.conv = o.conv.epilogue(nil, 0, o.i0, col0)
	o.epi.row0, o.epi.col0 = o.i0, col0
	return &o.epi
}

func (o *keptOut) deliver() {
	dst := o.sink.KeptBuffer()
	o.k.merge(dst)
	dst.InFlight = o.inFlight
	o.sink.KeptDone(dst)
}

func (o *keptOut) release() { keeperPool.Put(o.k) }
