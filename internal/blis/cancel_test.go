package blis

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/kernel"
)

// slowKernel wraps the default micro-kernel with a per-tile delay and a
// started signal, so tests can cancel a driver call that is provably
// mid-flight instead of racing a real kernel to completion. The kernel's
// own row entry is dropped: the driver would call it in place of the
// wrapped Fn (see kernel.Kernel.Row) and no tile would ever signal.
func slowKernel(started chan<- struct{}, delay time.Duration) kernel.Kernel {
	k := kernel.Default
	inner := k.Fn
	k.Row = nil
	var first atomic.Bool
	k.Fn = func(kc int, aw, bw []uint64, c []uint32, ldc int) {
		if first.CompareAndSwap(false, true) {
			select {
			case started <- struct{}{}:
			default:
			}
		}
		time.Sleep(delay)
		inner(kc, aw, bw, c, ldc)
	}
	return k
}

// testMatrix is a fixed random snps × samples input.
func testMatrix(snps, samples int) *bitmat.Matrix {
	return randomMatrix(rand.New(rand.NewSource(1)), snps, samples)
}

func TestDriverPreCancelled(t *testing.T) {
	g := testMatrix(64, 256)
	c := make([]uint32, 64*64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Syrk(Config{Threads: 2, Ctx: ctx}, g, c, 64, true)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled driver returned %v, want context.Canceled", err)
	}
	for i, v := range c {
		if v != 0 {
			t.Fatalf("pre-cancelled driver wrote c[%d]=%d", i, v)
		}
	}
}

func TestDriverCancelMidFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	g := testMatrix(128, 512)
	c := make([]uint32, 128*128)
	started := make(chan struct{}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Small KC so the call has many slab-group phases; the slow kernel
	// guarantees plenty of them remain when the cancel lands.
	cfg := Config{Threads: 4, KC: 1, Ctx: ctx,
		Kernel: slowKernel(started, 200*time.Microsecond)}
	pinChunk(t, 1)
	done := make(chan error, 1)
	go func() { done <- Syrk(cfg, g, c, 128, true) }()

	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled driver returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled driver did not return within 10s")
	}

	// The pool's workers and the context watcher must all have exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: %d > %d baseline",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStripeCancelledBetweenPanels: a stripe call whose context is
// cancelled while it asks for its second panel returns ctx.Err() without
// computing that panel or asking for a third; it counts as cancelled, not
// as a call; its arena goes back to the pool; and its worker and context
// watcher exit. sync.Pool may drop a Put (it does, at random, under the
// race detector), hence the retries.
func TestStripeCancelledBetweenPanels(t *testing.T) {
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(45))
	a := randomMatrix(rng, 64, 512)
	bs := []*bitmat.Matrix{randomMatrix(rng, 96, 512), randomMatrix(rng, 96, 512), randomMatrix(rng, 96, 512)}
	for attempt := 0; ; attempt++ {
		for len(arenaPool.Get().(*arena).ws) > 0 {
			// A used arena; one fresh from New means the pool is empty.
		}
		ctx, cancel := context.WithCancel(context.Background())
		var handed [3]atomic.Int64
		pulled := 0
		before := ReadStats()
		err := StripeEpilogue(Config{Threads: 2, MC: 16, KC: 2, Ctx: ctx}, a, nil, func(yield func(Panel, error) bool) {
			for p, b := range bs {
				pulled++
				if p == 1 {
					cancel()
				}
				epi := TileEpilogue(func(int, []uint32, int, int, int, int, int) { handed[p].Add(1) })
				if !yield(Panel{B: b, Epi: epi}, nil) {
					return
				}
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("stripe call cancelled between panels returned %v, want context.Canceled", err)
		}
		if handed[0].Load() == 0 || handed[1].Load() != 0 || pulled != 2 {
			t.Fatalf("runs handed over per panel %d, %d, %d with %d panels pulled: want the first panel's only, two pulled",
				handed[0].Load(), handed[1].Load(), handed[2].Load(), pulled)
		}
		after := ReadStats()
		if after.Calls != before.Calls || after.Cancelled != before.Cancelled+1 {
			t.Fatalf("calls %d → %d, cancelled %d → %d: want the call counted as cancelled only",
				before.Calls, after.Calls, before.Cancelled, after.Cancelled)
		}
		if len(arenaPool.Get().(*arena).ws) > 0 {
			break
		}
		if attempt == 10 {
			t.Fatal("the cancelled stripe call's arena never came back to the pool")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: %d > %d baseline", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDriverDeadlineExceeded(t *testing.T) {
	g := testMatrix(96, 512)
	c := make([]uint32, 96*96)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline pass
	err := Syrk(Config{Threads: 2, Ctx: ctx}, g, c, 96, true)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired driver returned %v, want context.DeadlineExceeded", err)
	}
}

// TestDriverCancelMasked covers the masked instantiation of the unified
// driver: the same cooperative-cancel machinery must serve both kernels.
func TestDriverCancelMasked(t *testing.T) {
	g := testMatrix(64, 256)
	mask := bitmat.NewMask(64, 256)
	c := make([]uint32, 64*64*4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := MaskedSyrk(Config{Threads: 2, Ctx: ctx}, g, mask, c, 64)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled masked driver returned %v, want context.Canceled", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	before := ReadStats()
	g := testMatrix(64, 512)
	c := make([]uint32, 64*64)
	if err := Syrk(Config{Threads: 2}, g, c, 64, true); err != nil {
		t.Fatal(err)
	}
	after := ReadStats()
	if after.Calls <= before.Calls {
		t.Fatalf("calls did not advance: %d -> %d", before.Calls, after.Calls)
	}
	wantCells := uint64(64) * 65 / 2 * uint64(g.Words)
	if after.Cells < before.Cells+wantCells {
		t.Fatalf("cells advanced by %d, want at least %d", after.Cells-before.Cells, wantCells)
	}
	if after.ArenaGets <= before.ArenaGets {
		t.Fatalf("arena gets did not advance")
	}
	if after.CellRate() <= 0 {
		t.Fatalf("cell rate %v", after.CellRate())
	}
	if hr := after.ArenaHitRate(); hr < 0 || hr > 1 {
		t.Fatalf("arena hit rate %v", hr)
	}
}
