package blis

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file provides the two reuse mechanisms of the parallel driver:
//
//   - workerPool: a set of goroutines spawned at most once per driver
//     call, when its first panel needs them. Work arrives in phases (pack
//     a slab group, run the compute jobs of a column block); each phase's
//     jobs are pulled from a shared atomic cursor so fast workers absorb
//     the slow jobs, and the caller blocks on exactly one wait per phase
//     instead of forking and joining fresh goroutines per (jc, pc) slab as
//     the original driver did.
//
//   - arena: the packing buffers and scratch tiles of a driver call,
//     recycled through a sync.Pool so repeated calls — the HTTP serving
//     path computes a region per request, a store build a stripe — do not
//     reallocate packing storage every time.

// poolPhase is one batch of homogeneous jobs distributed over the pool.
type poolPhase struct {
	jobs   int64
	cursor atomic.Int64
	run    func(worker, job int)
	done   sync.WaitGroup
	cancel <-chan struct{} // the owning pool's: its call's context's Done
}

// runJobs pulls job indices until the phase is drained or the pool's
// context is done, which it polls without blocking at every job boundary.
// Bailing between jobs leaves the remaining indices unclaimed — correct
// only because a cancelled driver call discards its output.
func (ph *poolPhase) runJobs(worker int) {
	for {
		select {
		case <-ph.cancel:
			return
		default:
		}
		idx := ph.cursor.Add(1) - 1
		if idx >= ph.jobs {
			return
		}
		ph.run(worker, int(idx))
	}
}

// workerPool runs phases across persistent goroutines. The calling
// goroutine participates as worker 0, so a call whose every phase asks for
// one worker spawns no goroutines at all and runs them inline. The zero
// value is an empty pool.
type workerPool struct {
	feeds []chan *poolPhase // one per extra worker started so far
	// cancel is the driver call's cfg.Ctx.Done() (nil: never): once it is
	// closed every worker abandons its phase at the next job boundary, so
	// do() returns within one job of cancellation.
	cancel <-chan struct{}
}

// do runs njobs jobs on up to workers workers (worker 0 is the caller) and
// returns when every job has finished — the single wait of a phase. The
// first phase that needs a worker starts its goroutine; workers beyond
// the phase's count are left sleeping on their feed channels.
func (p *workerPool) do(workers, njobs int, run func(worker, job int)) {
	if njobs <= 0 {
		return
	}
	ph := &poolPhase{jobs: int64(njobs), run: run, cancel: p.cancel}
	extra := min(workers, njobs) - 1
	for w := len(p.feeds) + 1; w <= extra; w++ {
		ch := make(chan *poolPhase, 1)
		p.feeds = append(p.feeds, ch)
		go func() {
			for ph := range ch {
				ph.runJobs(w)
				ph.done.Done()
			}
		}()
	}
	ph.done.Add(extra)
	for i := 0; i < extra; i++ {
		p.feeds[i] <- ph
	}
	ph.runJobs(0)
	ph.done.Wait()
}

// close releases the pool's goroutines.
func (p *workerPool) close() {
	for _, ch := range p.feeds {
		close(ch)
	}
}

// tileWorker is the per-worker private state of the compute phase: a
// packed-A block (covering every slab of the current slab group), the
// fringe scratch tile, and — in a streamed fused call — the strip of MR
// count rows each panel passes through on its way to the epilogue hook.
// packed memoizes which row block and slabs the A buffer currently holds,
// so consecutive jobs on the same row block skip repacking; the key is
// valid across column blocks and across the panels of a call because
// packed A panels depend on neither.
type tileWorker struct {
	apack  []uint64
	tile   []uint32
	strip  []uint32
	packed apackKey
}

// apackKey names a packed A block: row block ic, slabs [pg, pg+gs·KC) of
// the sample words. ic = -1 names none.
type apackKey struct{ ic, pg, gs int }

// arena owns every buffer of one driver call. cscratch is the fused-
// epilogue count scratch of the current column block of a call over several
// slabs — O(MC × NC) cells recycled across calls, the storage that replaces
// the dense m×n count matrix; a streamed call (one slab) leaves it alone and
// uses the workers' O(MR × NC) strips.
type arena struct {
	bpack    []uint64
	cscratch []uint32
	ws       []*tileWorker
}

var arenaPool = sync.Pool{New: func() any {
	stats.arenaMisses.Add(1)
	return &arena{}
}}

// maxPooledWords caps how much packing storage a recycled arena may pin
// (16 Mi words = 128 MiB); larger arenas are dropped for the GC instead.
const maxPooledWords = 16 << 20

// maxPooledScratch caps the fused-epilogue count scratch a recycled arena
// may pin (64 Mi cells = 256 MiB), counted separately from the packing
// budget because a wide column block legitimately needs MC×NC cells and
// dropping it would defeat the pooling the fused path exists to provide.
const maxPooledScratch = 64 << 20

func getArena() *arena {
	stats.arenaGets.Add(1)
	return arenaPool.Get().(*arena)
}

// release returns the arena to the pool unless it grew past the cap.
func (a *arena) release() {
	total := cap(a.bpack)
	for _, w := range a.ws {
		total += cap(w.apack)
	}
	if total > maxPooledWords {
		return
	}
	if cap(a.cscratch) > maxPooledScratch {
		a.cscratch = nil
	}
	arenaPool.Put(a)
}

// forget readies the arena for a driver call: no worker holds a packed A
// block of it yet.
func (a *arena) forget() {
	for _, w := range a.ws {
		w.packed.ic = -1
	}
}

// prepare sizes the arena for one panel of a driver call. A worker's
// packed A block survives unless its buffer had to grow.
func (a *arena) prepare(workers, bpackWords, apackWords, tileLen, stripLen int) {
	a.bpack = grow(a.bpack, bpackWords)
	for len(a.ws) < workers {
		a.ws = append(a.ws, &tileWorker{packed: apackKey{ic: -1}})
	}
	for i := 0; i < workers; i++ {
		w := a.ws[i]
		if cap(w.apack) < apackWords {
			w.packed.ic = -1
		}
		w.apack = grow(w.apack, apackWords)
		w.tile = grow(w.tile, tileLen)
		w.strip = grow(w.strip, stripLen)
	}
}

// grow returns s resized to n elements. When its capacity falls short it
// reallocates to the next power of two, so an arena that serves ever wider
// panels reallocates a logarithmic number of times, not at each width.
// release counts the rounded capacities against the pooling caps as it
// counts any capacity; maxPooledScratch is a power of two, so rounding
// never takes a count scratch that fit it past it.
func grow[T uint32 | uint64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, 1<<bits.Len(uint(n-1)))
	}
	return s[:n]
}
