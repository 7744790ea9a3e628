package blis

import (
	"context"
	"iter"
	"math"
	"time"
	"unsafe"
)

// The slab-pipelined parallel driver. Every entry point is an instance of
// it, the masked ones too: they run the plain driver over interleaved
// (value, mask) rows (masked.go). tileOps captures what differs between
// kernel families, the panel layout (interleaved or run-packed) and the
// micro-kernel, so the drive logic (blocking, packing, scheduling, the
// triangle skip) lives here once.
//
// Scheduling replaces the original fork/join-per-slab design:
//
//   - A call is a stripe: one A block against a sequence of B panels
//     (tilePanel), the diagonal SYRK block first when there is one. The
//     arena, the worker pool and the context watcher are the call's, not
//     a panel's, and each worker's packed A block outlives the panel that
//     packed it, so A is packed once per (row block, slab group) however
//     many panels stream past it. A one-panel call is Gemm/Syrk.
//   - Workers are persistent for the whole call (workerPool) and pull
//     fine-grained tile-range jobs from an atomic cursor instead of whole
//     MC row blocks, so the triangular SYRK workload stays balanced. A
//     panel on one worker is one job per row block: no queue to balance.
//   - B-slab packing is itself a parallel phase over (slab, panel) pairs.
//   - Slabs are processed in groups sized to a packing budget; while a
//     group is being computed, the next group's B panels are packed into
//     the other half of a double buffer by the same job queue, so there is
//     a single wait per slab group rather than a pack barrier plus a
//     compute barrier per slab.
//   - Under SYRK with a square register tile, the packed B slab of a
//     column block that spans the whole matrix is byte-identical to the
//     packed A slab, so A packing is skipped entirely and the micro-kernel
//     reads both panels out of the shared B buffer.

// tileOps specializes the unified driver for one kernel family.
type tileOps struct {
	mr, nr int
	// popcFold is how many single-word popcounts of a scalar kernel the
	// selected engine folds into one (1 scalar, the SIMD lane width
	// vectorized — tile or dot product); it feeds the popcounts-avoided
	// counter.
	popcFold int
	// shareable reports that A and B are the same matrix with a square
	// register tile, so packed row panels equal packed column panels.
	shareable bool
	// packA/packB pack one micro-panel over the word range [pc, pc+kc).
	packA func(dst []uint64, snp, count, pc, kc int)
	packB func(dst []uint64, snp, count, pc, kc int)
	// row applies the micro-kernel to nt consecutive full tiles of one row
	// of tiles — the A micro-panel aw against the B micro-panels at
	// bw[t*bstride:] — the first at (i0, j0) in C. acc is BLAS β: set, the
	// counts are added into C; clear, they are stored over whatever C held.
	// pf/pfRowBytes is the destination hint of kernel.RowFunc (nil for
	// none); only the assembly tile's row looks at it.
	row rowOp
	// fringe computes a partial mm×nn tile through the scratch tile, with
	// the same acc.
	fringe func(kc int, aw, bw []uint64, tile, c []uint32, i0, j0, mm, nn, ldc int, acc bool)
}

// rowOp is the signature of tileOps.row.
type rowOp func(kc int, aw, bw []uint64, bstride, nt int, c []uint32, i0, j0, ldc int, acc bool, pf unsafe.Pointer, pfRowBytes int)

// tileRow is the row op of a kernel that has only a per-tile function
// (every Go kernel): fn over the nt tiles, each cleared first when the row
// stores, since fn can only add.
func tileRow(fn func(kc int, ap, bp []uint64, c []uint32, ldc int), mr, nr int) rowOp {
	return func(kc int, aw, bw []uint64, bstride, nt int, c []uint32, i0, j0, ldc int, acc bool, _ unsafe.Pointer, _ int) {
		for t := 0; t < nt; t++ {
			ct := c[i0*ldc+j0+t*nr:]
			if !acc {
				for i := 0; i < mr; i++ {
					clear(ct[i*ldc:][:nr])
				}
			}
			fn(kc, aw, bw[t*bstride:], ct, ldc)
		}
	}
}

// tileFringe is the fringe op of the same kernels: fn into the zeroed
// scratch tile, then the valid mm×nn region added into C or copied over it.
func tileFringe(fn func(kc int, ap, bp []uint64, c []uint32, ldc int), nr int) func(kc int, aw, bw []uint64, tile, c []uint32, i0, j0, mm, nn, ldc int, acc bool) {
	return func(kc int, aw, bw []uint64, tile, c []uint32, i0, j0, mm, nn, ldc int, acc bool) {
		clear(tile)
		fn(kc, aw, bw, tile, nr)
		for i := 0; i < mm; i++ {
			dst := c[(i0+i)*ldc+j0:][:nn]
			src := tile[i*nr:]
			if !acc {
				copy(dst, src)
				continue
			}
			for t := range dst {
				dst[t] += src[t]
			}
		}
	}
}

// tileJob is one scheduler chunk: micro-tile columns [jr0, jr1) of row
// block [ic, ic+mc), across every slab of the current slab group. Chunk
// boundaries are cost-adapted (see buildTileJobs) so jobs near the SYRK
// diagonal, which hold fewer active tiles, cover more columns. Under a
// fused epilogue over several slabs, off is the job's cell offset into the
// per-column-block count scratch; jobs are stable across the slab groups of
// one column block, so the offset identifies the same accumulator region
// in every group.
type tileJob struct {
	ic, mc, jr0, jr1 int
	off              int
}

// maxGroupWords bounds the packed-B storage of one slab group (4 Mi words
// = 32 MiB); it controls how many KC-deep slabs are packed per phase. A
// variable rather than a constant so tests can shrink it to force
// multi-group pipelines on small inputs.
var maxGroupWords = 4 << 20

// chunksPerWorker is the work-queue overpartition factor of a panel on
// several workers: the target chunk cost is totalTiles/(workers ·
// chunksPerWorker), so the triangular SYRK workload balances across them
// at little queue traffic. A panel on one worker has nothing to balance
// (chunkTarget).
const chunksPerWorker = 4

// chunkTiles, when non-zero, replaces the derived chunk target with a fixed
// number of micro-tiles per scheduler chunk. Nothing outside this package's
// tests sets it: like maxGroupWords, it lets them force one-tile jobs and
// other scheduling extremes on small inputs.
var chunkTiles int

// minParallelCellWords is the size — output cells × sample words, m·n·kw,
// of one panel — below which the panel runs on its caller alone. Waking a
// second worker costs a cross-CPU futex round trip per phase, and a call
// this small is over before that pays: measured on the 2-vCPU build host, a store build's
// scan of 128 × 256-cell × 32-word calls (1 Mi cell-words, ≈ 100 µs each)
// took 36–41 ms on one thread and 38–42 ms on two, and 63 calls of ≈ 470 µs
// (4096 × 2048 at StripeRows 128) 29.8 ms against 32.4 ms, while calls four
// times that size (StripeRows 512) went from 27.2 ms to 15.8 ms. 4 Mi sits
// between the two. With only this rule toggled, six alternating ledger pairs
// each: build_dense_ooc 77.4 → 87.6 M pairs/s and build_sparse_banded
// 66.0 → 74.9, 6/6 both (EXPERIMENTS.md). The store builds have since run
// their stripe calls on one worker each, whatever the threshold says, so it
// governs the float scans and the serving calls only. A variable rather
// than a constant, like maxGroupWords: this package's tests zero it
// (TestMain) so their small shapes keep running on as many workers as they
// ask for.
var minParallelCellWords = 4 << 20

// SetMinParallelForTest sets the panel size below which a call runs on its
// caller (minParallelCellWords) and returns the value it replaced. Tests of
// other packages set 0 so that their small shapes run on as many workers
// as they ask for, and put the old value back when done.
func SetMinParallelForTest(cellWords int) int {
	old := minParallelCellWords
	minParallelCellWords = cellWords
	return old
}

// callWorkers is how many workers a panel of m × n cells over kw sample
// words runs on: threads, or 1 when the panel is too small to pay for a
// wake-up. Everything that depends on the worker count — the pool's share
// of the panel, the arena, the chunk target — reads it from here.
func callWorkers(threads, m, n, kw int) int {
	if m*n*kw < minParallelCellWords {
		return 1
	}
	return threads
}

// chunkTarget is the micro-tiles per scheduler job of column block
// [jc, jc+nc) on workers workers: chunkTiles when a test pins it, a whole
// row block on one worker — one row op then spans every tile of a panel
// row, and the epilogue gets one run per MR-row panel — else the block's
// active tiles over workers·chunksPerWorker.
func chunkTarget(m, jc, nc, mcBlk, mr, nr, workers int, syrk bool) int {
	switch {
	case chunkTiles != 0:
		return chunkTiles
	case workers == 1:
		return math.MaxInt
	}
	return countTiles(m, jc, nc, mcBlk, mr, nr, syrk) / (workers * chunksPerWorker)
}

func roundUp(x, m int) int { return (x + m - 1) / m * m }

// activeTiles counts the micro-tiles of micro-column jr within row block
// [ic, ic+mc) that survive the SYRK triangle skip (i0 < j0+nr).
func activeTiles(ic, mc, jc, jr, mr, nr int, syrk bool) int {
	apanels := (mc + mr - 1) / mr
	if !syrk {
		return apanels
	}
	span := jc + jr + nr - ic
	if span <= 0 {
		return 0
	}
	if span > mc {
		span = mc
	}
	return (span + mr - 1) / mr
}

// buildTileJobs chunks the active micro-tiles of column block [jc, jc+nc)
// into jobs of roughly target cost each, appending to jobs.
func buildTileJobs(jobs []tileJob, m, jc, nc, mcBlk, mr, nr, target int, syrk bool) []tileJob {
	if target < 1 {
		target = 1
	}
	for ic := 0; ic < m; ic += mcBlk {
		mc := min(mcBlk, m-ic)
		cur := tileJob{ic: ic, mc: mc, jr0: -1}
		acc := 0
		for jr := 0; jr < nc; jr += nr {
			t := activeTiles(ic, mc, jc, jr, mr, nr, syrk)
			if t == 0 {
				continue // tiles activate monotonically in jr
			}
			if cur.jr0 < 0 {
				cur.jr0 = jr
			}
			acc += t
			if acc >= target {
				cur.jr1 = jr + nr
				jobs = append(jobs, cur)
				cur = tileJob{ic: ic, mc: mc, jr0: -1}
				acc = 0
			}
		}
		if cur.jr0 >= 0 {
			cur.jr1 = nc
			jobs = append(jobs, cur)
		}
	}
	return jobs
}

// countTiles sums the active micro-tiles of one column block.
func countTiles(m, jc, nc, mcBlk, mr, nr int, syrk bool) int {
	total := 0
	for ic := 0; ic < m; ic += mcBlk {
		mc := min(mcBlk, m-ic)
		for jr := 0; jr < nc; jr += nr {
			total += activeTiles(ic, mc, jc, jr, mr, nr, syrk)
		}
	}
	return total
}

// tilePanel is one panel of a driver call: the tileOps over its B matrix,
// its width n, and where its counts go — the caller's c with row stride
// ldc, or with epi non-nil the fused epilogue (c is then nil). syrk marks
// the diagonal block, a stripe's own columns: only the tiles on or above
// the diagonal are computed.
type tilePanel struct {
	ops  tileOps
	n    int
	c    []uint32
	ldc  int
	syrk bool
	epi  Epilogue
}

// onePanel is the panel sequence of a one-panel driver call.
func onePanel(p tilePanel) iter.Seq2[tilePanel, error] {
	return func(yield func(tilePanel, error) bool) { yield(p, nil) }
}

// tileCall is one driver call: the m rows over kw sample words that every
// panel multiplies, and what the call holds from its first panel to its
// last — the arena (with each worker's packed-A memo), the worker pool and
// the context watcher's stop flag — plus the work it has counted.
type tileCall struct {
	cfg   Config
	m, kw int
	ar    *arena
	pool  workerPool
	// Totals of the panels computed, added to the package counters only
	// once the call completes.
	cells, avoided, epiBytes uint64
	nanos                    time.Duration
}

// tileDriver carries the invariants of one panel of a call.
type tileDriver struct {
	cfg       Config
	ops       tileOps
	m, n, kw  int
	c         []uint32
	ldc       int
	syrk      bool
	mcBlk     int
	kcMax     int
	slabWords int // packed words of one slab at the widest column block
	apanelLen int // packed words of one A micro-panel per slab
	// epi, when non-nil, is the fused epilogue: counts land in scratch
	// instead of a caller matrix and finished row runs are handed to the
	// hook while still hot. streamed is the single-slab order of a fused
	// call (see runJob): the scratch is the worker's strip, and dest, when
	// the epilogue answers, where each run's floats will go.
	epi      Epilogue
	streamed bool
	dest     destHinter
	scratch  []uint32 // per-column-block count scratch (fused, not streamed)
}

// ctxErr reports the context's error, tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// driveTiles runs one driver call: the m rows over kw sample words against
// each panel of panels in turn, pulled one at a time — a panel is asked
// for only once every cell of the one before it has been handed over. The
// call normalizes nothing (its entry point did), takes one arena, one
// worker pool and one context watcher for all its panels, and keeps each
// worker's packed A block from panel to panel, so a stripe's A is packed
// once per (row block, slab group) however many B panels stream past it.
// A panel that yields an error ends the call with it. The call counts once
// in DriverStats.Calls when every panel is done.
//
// Cancellation is cooperative: a watcher goroutine trips the pool's stop
// flag the moment cfg.Ctx is done, workers abandon their phase at the
// next job boundary, and the driver observes the context after every
// phase wait and before every panel — so a cancelled call returns
// ctx.Err() within one slab-group phase, with its arena still recycled
// through the pool.
func driveTiles(cfg Config, m, kw int, panels iter.Seq2[tilePanel, error]) error {
	ctx := cfg.Ctx
	if err := ctxErr(ctx); err != nil {
		stats.cancelled.Add(1)
		return err
	}
	tc := &tileCall{cfg: cfg, m: m, kw: kw, ar: getArena()}
	defer tc.ar.release()
	tc.ar.forget()
	defer tc.pool.close()
	if ctx != nil {
		if done := ctx.Done(); done != nil {
			unwatch := make(chan struct{})
			defer close(unwatch)
			go func() {
				select {
				case <-done:
					tc.pool.stop.Store(true)
				case <-unwatch:
				}
			}()
		}
	}
	for p, err := range panels {
		if err == nil {
			err = tc.panel(p)
		}
		if err != nil {
			if err == ctxErr(ctx) {
				stats.cancelled.Add(1)
			}
			return err
		}
	}
	stats.calls.Add(1)
	stats.cells.Add(tc.cells)
	stats.nanos.Add(uint64(tc.nanos))
	stats.popcAvoided.Add(tc.avoided)
	stats.epiBytesAvoided.Add(tc.epiBytes)
	return nil
}

// panel runs the five-loop blocked multiplication of the call's rows
// against one panel, for any tileOps.
//
// With p.epi non-nil the panel runs fused: the full m×n count matrix never
// exists. When the sample dimension fits one KC slab the panel is
// streamed: a worker counts each MR-row panel of its job into its own MR ×
// job-width strip and hands it to epi at once, one row run, before the
// next panel overwrites the strip. Over several slabs every job
// accumulates in a slice of the per-column-block scratch buffer, and
// during the final slab group the worker that finishes a job hands its
// panels to epi, one row run each.
func (tc *tileCall) panel(p tilePanel) error {
	cfg, ops, m, n, kw := tc.cfg, p.ops, tc.m, p.n, tc.kw
	if m == 0 || n == 0 || kw == 0 {
		return nil
	}
	ctx := cfg.Ctx
	if err := ctxErr(ctx); err != nil {
		return err
	}
	start := time.Now()
	mr, nr := ops.mr, ops.nr
	// Row and column blocks are rounded to whole micro-tiles so block
	// boundaries always align with panel boundaries (required for the
	// SYRK pack-sharing path, and harmless otherwise).
	mcBlk := roundUp(max(cfg.MC, mr), mr)
	ncBlk := roundUp(max(cfg.NC, nr), nr)
	kcMax := min(cfg.KC, kw)
	nslabs := (kw + cfg.KC - 1) / cfg.KC

	bpanelsMax := (min(ncBlk, roundUp(n, nr)) + nr - 1) / nr
	slabWords := bpanelsMax * nr * kcMax
	group := max(1, min(maxGroupWords/slabWords, nslabs))
	ngroups := (nslabs + group - 1) / group
	nbufs := 1
	if ngroups > 1 {
		nbufs = 2 // double buffer: pack group g+1 while computing group g
	}

	workers := callWorkers(cfg.Threads, m, n, kw)
	syrk := p.syrk
	fused := p.epi != nil
	streamed := fused && nslabs == 1
	// When every column block can share the packed B slab as A panels, no
	// worker ever packs an A block.
	allShare := ops.shareable && syrk && n <= ncBlk && m == n
	apanelLen := mr * kcMax
	apackWords := 0
	if !allShare {
		apackWords = (mcBlk / mr) * apanelLen * group
	}

	ar := tc.ar
	stripLen := 0
	if streamed {
		stripLen = mr * bpanelsMax * nr // MR rows of the widest job there can be
	}
	ar.prepare(workers, nbufs*group*slabWords, apackWords, mr*nr, stripLen)
	bpack := ar.bpack
	pool := &tc.pool

	d := &tileDriver{
		cfg: cfg, ops: ops, m: m, n: n, kw: kw, c: p.c, ldc: p.ldc, syrk: syrk,
		mcBlk: mcBlk, kcMax: kcMax, slabWords: slabWords, apanelLen: apanelLen,
		epi: p.epi, streamed: streamed,
	}
	if streamed {
		d.dest, _ = p.epi.(destHinter)
	}

	var jobs []tileJob
	for jc := 0; jc < n; jc += ncBlk {
		nc := min(ncBlk, n-jc)
		jobs = buildTileJobs(jobs[:0], m, jc, nc, mcBlk, mr, nr, chunkTarget(m, jc, nc, mcBlk, mr, nr, workers, syrk), syrk)
		if len(jobs) == 0 {
			continue
		}
		if fused && !streamed {
			// Lay the jobs' count accumulators end to end in the scratch
			// buffer: O(active area of one column block), recycled through
			// the arena, instead of the full m×n matrix. The previous
			// column block is fully drained (its last group's pool.do has
			// returned), so reusing — or growing — the buffer is safe.
			off := 0
			for i := range jobs {
				jobs[i].off = off
				off += jobs[i].mc * (jobs[i].jr1 - jobs[i].jr0)
			}
			ar.cscratch = grow(ar.cscratch, off)
			d.scratch = ar.cscratch
		}
		bpanels := (nc + nr - 1) / nr
		share := ops.shareable && syrk && jc == 0 && nc == n && m == n

		// packGroup returns the job count and job body that pack every B
		// panel of slab group gi into its half of the double buffer.
		packGroup := func(gi int) (int, func(worker, job int)) {
			pg := gi * group * cfg.KC
			gs := min(group, nslabs-gi*group)
			buf := bpack[(gi%nbufs)*group*slabWords:]
			return gs * bpanels, func(_, idx int) {
				s, p := idx/bpanels, idx%bpanels
				pc := pg + s*cfg.KC
				kc := min(cfg.KC, d.kw-pc)
				dst := buf[s*slabWords+p*nr*kcMax:]
				ops.packB(dst, jc+p*nr, min(nr, nc-p*nr), pc, kc)
			}
		}

		np, prun := packGroup(0)
		pool.do(workers, np, prun)
		if err := ctxErr(ctx); err != nil {
			return err
		}
		for gi := 0; gi < ngroups; gi++ {
			pg := gi * group * cfg.KC
			gs := min(group, nslabs-gi*group)
			buf := bpack[(gi%nbufs)*group*slabWords:]
			nextN := 0
			var nextRun func(worker, job int)
			if gi+1 < ngroups {
				nextN, nextRun = packGroup(gi + 1)
			}
			// One queue, one wait: the next group's pack jobs ride ahead
			// of this group's compute jobs (they touch disjoint buffers).
			final := gi == ngroups-1
			pool.do(workers, nextN+len(jobs), func(w, idx int) {
				if idx < nextN {
					nextRun(w, idx)
					return
				}
				d.runJob(ar.ws[w], w, jobs[idx-nextN], jc, nc, pg, gs, buf, share, final)
			})
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
	}
	cells := uint64(m) * uint64(n) * uint64(kw)
	if syrk {
		// Only the upper triangle (plus diagonal blocks' mirrors) is
		// computed; count the triangle as the useful work.
		cells = uint64(n) * uint64(n+1) / 2 * uint64(kw)
	}
	tc.cells += cells
	tc.nanos += time.Since(start)
	if ops.popcFold > 1 {
		tc.avoided += cells - cells/uint64(ops.popcFold)
	}
	if fused {
		// A count-then-convert pipeline would have materialized the full
		// m×n count matrix just to read it once.
		tc.epiBytes += uint64(m) * uint64(n) * 4
	}
	return nil
}

// firstCol returns the first micro-column of job jb, within column block
// jc, that the sweep computes for the MR-row panel at global row i0: the
// job's left edge, or under SYRK the first tile with i0 < j0+nr. A result
// at or past the job's right edge means the panel — and, rows only sinking
// further below the diagonal, every later one — has no computed tile.
func (d *tileDriver) firstCol(jb tileJob, jc, i0 int) int {
	nr := d.ops.nr
	if d.syrk && i0 >= jc+jb.jr0+nr {
		return (i0 - jc) / nr * nr
	}
	return jb.jr0
}

// runJob computes one tile-range chunk over every slab of the current
// group. Unless the SYRK pack-sharing path is active, the worker lazily
// packs (and memoizes, for every later job and panel of the call) the A
// panels of the job's row block first. The
// sweep is slab → MR-row panel → one row op over the panel's full tiles →
// the fringe tile, if the column block ends in one. The slab loop stays
// outermost so a panel re-reads B micro-panels one slab apart, not all
// slabs apart.
//
// Under a fused epilogue the counts land in scratch, in job-local
// coordinates with the job's width as row stride, and the first slab stores
// them instead of adding, so recycled scratch is never cleared and never
// read before it is written. Where that scratch is, and when the hook runs,
// is the one thing the streamed flag decides. Over several slabs it is the
// job's region of the column block's scratch, a panel at its own rows, and
// the hook converts the job's panels after the final group's last slab
// (fuseJob). Streamed — one slab, so a panel's first rank-k update is also
// its last — it is the worker's strip: every panel is counted into strip
// row 0 and handed to the hook before the next one starts, and the row op
// is told where the hook will write so the tile can prefetch those lines
// while it counts. C then moves once, through an MR × job-width strip that
// stays in cache, and the output's write-allocate misses overlap the k-loop
// instead of stalling the conversion a whole job later.
func (d *tileDriver) runJob(st *tileWorker, w int, jb tileJob, jc, nc, pg, gs int, buf []uint64, share, final bool) {
	ops := &d.ops
	mr, nr := ops.mr, ops.nr
	apanels := (jb.mc + mr - 1) / mr
	if !share && st.packed != (apackKey{jb.ic, pg, gs}) {
		for s := 0; s < gs; s++ {
			pc := pg + s*d.cfg.KC
			kc := min(d.cfg.KC, d.kw-pc)
			base := s * apanels * d.apanelLen
			for ir := 0; ir < jb.mc; ir += mr {
				ops.packA(st.apack[base+(ir/mr)*d.apanelLen:], jb.ic+ir, min(mr, jb.mc-ir), pc, kc)
			}
		}
		st.packed = apackKey{jb.ic, pg, gs}
	}
	// Output routing: caller matrix with global coordinates, or — fused —
	// scratch with job-local coordinates.
	cdst, ldc := d.c, d.ldc
	width := jb.jr1 - jb.jr0
	fused := d.epi != nil
	iorg, jorg := 0, 0
	switch {
	case d.streamed:
		cdst, ldc = st.strip[:mr*width], width
		jorg = jc + jb.jr0
	case fused:
		cdst, ldc = d.scratch[jb.off:jb.off+jb.mc*width], width
		iorg, jorg = jb.ic, jc+jb.jr0
	}
	panelB := nr * d.kcMax
	fullEnd := min(jb.jr1, nc/nr*nr) // tiles left of it are nr columns wide
	var epiTiles uint64
	var epiNanos time.Duration
	for s := 0; s < gs; s++ {
		pc := pg + s*d.cfg.KC
		kc := min(d.cfg.KC, d.kw-pc)
		sbase := s * d.slabWords
		abase := s * apanels * d.apanelLen
		// The caller's C is added to; fused scratch is stored by the first
		// slab of the first group and added to by the rest.
		acc := !fused || pc > 0
		for ir := 0; ir < jb.mc; ir += mr {
			i0 := jb.ic + ir
			jr := d.firstCol(jb, jc, i0)
			if jr >= jb.jr1 {
				break
			}
			var aw []uint64
			if share {
				aw = buf[sbase+(i0/mr)*panelB:][:kc*mr]
			} else {
				aw = st.apack[abase+(ir/mr)*d.apanelLen:][:kc*mr]
			}
			ci := i0 - iorg // the panel's first row in cdst
			var pf unsafe.Pointer
			pfRowBytes := 0
			if d.streamed {
				ci = 0
				if d.dest != nil {
					pf, pfRowBytes = d.dest.Dest(i0, jc+jr)
				}
			}
			mm := min(mr, jb.mc-ir)
			if mm == mr && jr < fullEnd {
				ops.row(kc, aw, buf[sbase+(jr/nr)*panelB:], panelB, (fullEnd-jr)/nr, cdst, ci, jc+jr-jorg, ldc, acc, pf, pfRowBytes)
				jr = fullEnd
			}
			for ; jr < jb.jr1; jr += nr {
				ops.fringe(kc, aw, buf[sbase+(jr/nr)*panelB:], st.tile, cdst, ci, jc+jr-jorg, mm, min(nr, nc-jr), ldc, acc)
			}
			if d.streamed {
				t0 := time.Now()
				epiTiles += d.fusePanel(w, jb, jc, nc, cdst, width, ir, 0)
				epiNanos += time.Since(t0)
			}
		}
	}
	if fused && final && !d.streamed {
		t0 := time.Now()
		epiTiles = d.fuseJob(w, jb, jc, nc, cdst, width)
		epiNanos = time.Since(t0)
	}
	// The epilogue counters keep their meaning in both orders — the hook's
	// wall time and the tiles handed over — at two clock reads per panel
	// when streamed, two per job otherwise, and one add of each per job.
	if epiTiles > 0 {
		stats.epiTiles.Add(epiTiles)
		stats.epiNanos.Add(uint64(epiNanos))
	}
}

// fuseJob hands every panel of a job whose counts have received their last
// rank-k update to the hook, top to bottom, and returns the tiles handed
// over. Rows only sink further below the SYRK diagonal, so the first panel
// without a computed tile ends the job.
func (d *tileDriver) fuseJob(w int, jb tileJob, jc, nc int, cdst []uint32, width int) uint64 {
	tiles := uint64(0)
	for ir := 0; ir < jb.mc; ir += d.ops.mr {
		t := d.fusePanel(w, jb, jc, nc, cdst, width, ir, ir)
		if t == 0 {
			break
		}
		tiles += t
	}
	return tiles
}

// fusePanel hands the finished counts of job jb's MR-row panel ir — sitting
// at row srow of cdst — to the epilogue hook as a single row run spanning
// every computed column of the job, with global output coordinates, and
// returns how many tiles that was: 0, and nothing handed over, for a panel
// without a computed tile. Under SYRK the run starts at the panel's first
// tile with i0 < j0+nr (the compute sweep's skip rule), so the cells
// delivered are exactly the cells computed. Both orders of runJob deliver
// through here.
func (d *tileDriver) fusePanel(w int, jb tileJob, jc, nc int, cdst []uint32, width, ir, srow int) uint64 {
	ops := &d.ops
	mr, nr := ops.mr, ops.nr
	i0 := jb.ic + ir
	jr := d.firstCol(jb, jc, i0)
	jrEnd := min(jb.jr1, nc)
	if jr >= jrEnd {
		return 0
	}
	off := srow*width + (jr - jb.jr0)
	d.epi.RowRun(w, cdst[off:], width, i0, jc+jr, min(mr, jb.mc-ir), jrEnd-jr)
	return uint64((jrEnd - jr + nr - 1) / nr)
}
