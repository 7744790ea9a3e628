package blis

import (
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"
)

// smallCallThreshold is minParallelCellWords as shipped. TestMain zeroes the
// variable so that every test of this package runs on the workers its Config
// asks for — their shapes are all far under the rule, and they are what
// covers the masked entry points, the shared-C path, the double-buffer barrier,
// cancellation and pool shutdown on several workers (also under -race);
// TestSmallCallRunsOnCaller puts the shipped value back to test the rule.
var smallCallThreshold = minParallelCellWords

func TestMain(m *testing.M) {
	minParallelCellWords = 0
	os.Exit(m.Run())
}

// TestSmallCallRunsOnCaller is the small-call rule: under the shipped
// threshold a call runs on worker 0 alone whatever Threads says, from the
// threshold up on Threads workers — and it is the rule, nothing else, that
// confines the small call: the same call with the threshold at zero reaches
// a second worker.
func TestSmallCallRunsOnCaller(t *testing.T) {
	if w := callWorkers(4, 128, 256, 32); w != 4 {
		t.Fatalf("threshold zeroed by TestMain, yet callWorkers = %d", w)
	}
	defer func(old int) { minParallelCellWords = old }(minParallelCellWords)
	minParallelCellWords = smallCallThreshold
	for _, c := range []struct{ m, n, kw, want int }{
		{128, 256, 32, 1},  // one call of the dense build's scan
		{128, 2048, 8, 1},  // one stripe of compute_small_k's diagonal
		{1024, 1024, 3, 1}, // just under
		{1024, 1024, 4, 4}, // at the threshold
		{8192, 2048, 8, 4}, // a column block of compute_small_k
		{1024, 1024, 1024, 4},
	} {
		if got := callWorkers(4, c.m, c.n, c.kw); got != c.want {
			t.Errorf("callWorkers(4, %d, %d, %d) = %d, want %d", c.m, c.n, c.kw, got, c.want)
		}
	}

	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 128, 512)
	b := randomMatrix(rng, 256, 512)
	workersSeen := func() map[int]bool {
		var mu sync.Mutex
		seen := map[int]bool{}
		err := GemmEpilogue(Config{MC: 32, NC: 64, KC: 8, Threads: 4}, a, b,
			TileEpilogue(func(worker int, _ []uint32, _, _, _, _, _ int) {
				mu.Lock()
				seen[worker] = true
				mu.Unlock()
				time.Sleep(50 * time.Microsecond) // long enough for a woken worker to take the next job
			}))
		if err != nil {
			t.Fatal(err)
		}
		return seen
	}
	if seen := workersSeen(); len(seen) != 1 || !seen[0] {
		t.Errorf("a 128 × 256 × 8-word call under the rule ran on workers %v, want worker 0 alone", seen)
	}
	minParallelCellWords = 0
	if seen := workersSeen(); len(seen) < 2 {
		t.Errorf("the same call without the rule ran on workers %v, want several", seen)
	}
}

// chunked is a driver config together with the scheduler chunk target it
// runs under (chunkTiles; 0 = derived).
type chunked struct {
	Config
	chunk int
}

// pinChunk fixes the scheduler's chunk target at n micro-tiles (0 =
// derived) until the test ends. Set it before a call starts, never while one
// runs.
func pinChunk(t testing.TB, n int) {
	t.Cleanup(func() { chunkTiles = 0 })
	chunkTiles = n
}

// adversarialConfigs exercises the parallel driver at scheduling extremes:
// blocks smaller than a micro-tile, single-slab and many-slab k, more
// threads than jobs, and forced chunk granularities.
func adversarialConfigs() []chunked {
	return []chunked{
		{Config{}, 0},
		{Config{MC: 1, NC: 1, KC: 1}, 0},
		{Config{MC: 5, NC: 7, KC: 3, Threads: 7}, 0},
		{Config{MC: 8, NC: 8, KC: 2, Threads: 3}, 1},
		{Config{MC: 64, NC: 16, KC: 4, Threads: 2}, 1000},
		{Config{MC: 16, NC: 4096, KC: 8, Threads: 5}, 0},
		{Config{Threads: 13}, 2},
	}
}

// adversarialShapes holds (m, n, samples) triples around the MR/NR/KC
// boundaries: sub-tile matrices, fringe-only tiles, and shapes large
// enough to cross block boundaries.
var adversarialShapes = [][3]int{
	{1, 1, 1},
	{1, 3, 64},
	{3, 1, 65},
	{2, 2, 63},
	{5, 5, 200},
	{7, 13, 129},
	{17, 9, 320},
	{33, 47, 500},
	{65, 64, 1000},
}

func TestGemmAdversarialCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sh := range adversarialShapes {
		m, n, samples := sh[0], sh[1], sh[2]
		a := randomMatrix(rng, m, samples)
		b := randomMatrix(rng, n, samples)
		ldc := n + rng.Intn(3) // exercise ldc > n too
		want := make([]uint32, m*ldc)
		if err := Reference(a, b, want, ldc); err != nil {
			t.Fatal(err)
		}
		for ci, c := range adversarialConfigs() {
			pinChunk(t, c.chunk)
			got := make([]uint32, m*ldc)
			if err := Gemm(c.Config, a, b, got, ldc); err != nil {
				t.Fatalf("shape %v cfg %d: %v", sh, ci, err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("shape %v cfg %d: mismatch at %d: %d != %d",
						sh, ci, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSyrkAdversarialCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, sh := range adversarialShapes {
		n, samples := sh[0]+sh[1], sh[2]
		g := randomMatrix(rng, n, samples)
		want := make([]uint32, n*n)
		if err := Reference(g, g, want, n); err != nil {
			t.Fatal(err)
		}
		for ci, c := range adversarialConfigs() {
			pinChunk(t, c.chunk)
			got := make([]uint32, n*n)
			if err := Syrk(c.Config, g, got, n, true); err != nil {
				t.Fatalf("n=%d cfg %d: %v", n, ci, err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d cfg %d: mismatch at %d: %d != %d",
						n, ci, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMaskedAdversarialCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, sh := range [][3]int{{1, 1, 1}, {2, 3, 64}, {3, 2, 65}, {7, 5, 200}, {17, 19, 320}} {
		m, n, samples := sh[0], sh[1], sh[2]
		a, ka := randomMasked(rng, m, samples)
		b, kb := randomMasked(rng, n, samples)
		want := make([]uint32, m*n*4)
		if err := MaskedReference(a, b, ka, kb, want, n); err != nil {
			t.Fatal(err)
		}
		for ci, c := range adversarialConfigs() {
			pinChunk(t, c.chunk)
			got := make([]uint32, m*n*4)
			if err := MaskedGemm(c.Config, a, b, ka, kb, got, n); err != nil {
				t.Fatalf("shape %v cfg %d: %v", sh, ci, err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("shape %v cfg %d: mismatch at %d", sh, ci, i)
				}
			}
		}
	}
}

// TestConcurrentSyrkSharedArena drives many simultaneous Syrk and
// MaskedSyrk calls, all drawing pack buffers from the shared arena pool —
// the -race exercise for the pooled-arena path (the HTTP server computes
// a region per request this way).
func TestConcurrentSyrkSharedArena(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	n, samples := 70, 400
	g := randomMatrix(rng, n, samples)
	mg, mk := randomMasked(rng, n, samples)
	want := make([]uint32, n*n)
	if err := Reference(g, g, want, n); err != nil {
		t.Fatal(err)
	}
	mwant := make([]uint32, n*n*4)
	if err := MaskedReference(mg, mg, mk, mk, mwant, n); err != nil {
		t.Fatal(err)
	}

	cfg := Config{MC: 16, NC: 32, KC: 2, Threads: 3}
	pinChunk(t, 1)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for call := 0; call < 8; call++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got := make([]uint32, n*n)
			if err := Syrk(cfg, g, got, n, true); err != nil {
				errs <- err
				return
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("concurrent Syrk mismatch at %d", i)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			got := make([]uint32, n*n*4)
			if err := MaskedSyrk(cfg, mg, mk, got, n); err != nil {
				errs <- err
				return
			}
			MirrorMasked(got, n, n)
			for i := range got {
				if got[i] != mwant[i] {
					t.Errorf("concurrent MaskedSyrk mismatch at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMirrorParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	// Past mirrorParallelMin so forEachTriangleSpan actually forks.
	n := mirrorParallelMin + 37
	c := make([]uint32, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			c[i*n+j] = rng.Uint32()
		}
	}
	want := make([]uint32, n*n)
	copy(want, c)
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			want[i*n+j] = want[j*n+i]
		}
	}
	Mirror(c, n, n)
	for i := range c {
		if c[i] != want[i] {
			t.Fatalf("mirror mismatch at (%d,%d)", i/n, i%n)
		}
	}
}

func TestForEachTriangleSpanCoversRows(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, mirrorParallelMin, mirrorParallelMin + 100} {
		for _, parts := range []int{1, 2, 3, 8, 1000} {
			var mu sync.Mutex
			seen := make([]bool, n)
			forEachTriangleSpan(n, parts, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				for i := lo; i < hi; i++ {
					if seen[i] {
						t.Fatalf("n=%d parts=%d: row %d covered twice", n, parts, i)
					}
					seen[i] = true
				}
			})
			for i := 1; i < n; i++ {
				if !seen[i] {
					t.Fatalf("n=%d parts=%d: row %d not covered", n, parts, i)
				}
			}
		}
	}
}

func TestActiveTilesMatchesEnumeration(t *testing.T) {
	for _, syrk := range []bool{false, true} {
		for _, mr := range []int{2, 4} {
			for _, nr := range []int{2, 4} {
				for ic := 0; ic < 24; ic += mr {
					for jr := 0; jr < 24; jr += nr {
						mc := 8
						want := 0
						for ir := 0; ir < mc; ir += mr {
							if syrk && ic+ir >= jr+nr {
								continue
							}
							want++
						}
						got := activeTiles(ic, mc, 0, jr, mr, nr, syrk)
						if got != want {
							t.Fatalf("activeTiles(ic=%d jr=%d mr=%d nr=%d syrk=%v) = %d, want %d",
								ic, jr, mr, nr, syrk, got, want)
						}
					}
				}
			}
		}
	}
}
