package blis

import (
	"math/rand"
	"sync"
	"testing"

	"ldgemm/internal/kernel"
	"ldgemm/internal/popcount"
)

// routeKernels are the kernel settings whose routes the oracle tests cover:
// unset (the host default — the vector tile where there is one) and the Go
// 4x4, which k-dispatches between its own loop and the batched family. Run
// again under kernel.DisableVectorTileForTest (TestPortableRoute), unset is
// the 4x4 too.
var routeKernels = []kernel.Kernel{{}, kernel.Portable}

// dispatchShapes stresses every route at its boundaries: m, n not
// multiples of MR/NR, sample words below and above CSAMinWords and not
// multiples of the fold widths (16 for CSA, 8/4 for the SIMD tiers).
// Samples are in bits; 64 samples = 1 word.
var dispatchShapes = [][3]int{
	{1, 1, 64},
	{1, 5, 320},      // 5 words: below every fold width
	{5, 3, 1024},     // 16 words: exactly one CSA fold
	{7, 13, 1088},    // 17 words: fold + 1
	{33, 47, 2112},   // 33 words: past the k-dispatch threshold, odd
	{66, 67, 4288},   // 67 words
	{13, 9, 64 * 67}, // fringe rows/cols with many slabs
}

func TestGemmStrategiesMatchScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, sh := range dispatchShapes {
		m, n, samples := sh[0], sh[1], sh[2]
		a := randomMatrix(rng, m, samples)
		b := randomMatrix(rng, n, samples)
		ldc := n + rng.Intn(3)
		want := make([]uint32, m*ldc)
		if err := Reference(a, b, want, ldc); err != nil {
			t.Fatal(err)
		}
		for _, k := range routeKernels {
			for _, c := range []chunked{
				{Config{Kernel: k}, 0},
				{Config{Kernel: k, MC: 5, NC: 7, KC: 3, Threads: 3}, 0},
				{Config{Kernel: k, MC: 8, NC: 16, KC: 7, Threads: 2}, 1},
			} {
				cfg := c.Config
				pinChunk(t, c.chunk)
				got := make([]uint32, m*ldc)
				if err := Gemm(cfg, a, b, got, ldc); err != nil {
					t.Fatalf("shape %v kernel %q: %v", sh, k.Name, err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("shape %v kernel %q cfg %+v: mismatch at %d: %d != %d",
							sh, k.Name, cfg, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestSyrkStrategiesMatchScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, sh := range dispatchShapes {
		n, samples := sh[0]+sh[1], sh[2]
		g := randomMatrix(rng, n, samples)
		want := make([]uint32, n*n)
		if err := Reference(g, g, want, n); err != nil {
			t.Fatal(err)
		}
		for _, k := range routeKernels {
			// Defaults keep NC wide, exercising the pack-sharing path the
			// run layout must preserve; the small config forces fringe
			// tiles and multi-slab groups.
			for _, c := range []chunked{
				{Config{Kernel: k}, 0},
				{Config{Kernel: k, MC: 4, NC: 8, KC: 5, Threads: 3}, 1},
			} {
				cfg := c.Config
				pinChunk(t, c.chunk)
				got := make([]uint32, n*n)
				if err := Syrk(cfg, g, got, n, true); err != nil {
					t.Fatalf("n=%d kernel %q: %v", n, k.Name, err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d kernel %q: mismatch at %d: %d != %d",
							n, k.Name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// The masked entry points run the default kernel over interleaved rows, so
// their route depends on k and the host's default: dispatchShapes crosses
// CSAMinWords, and TestPortableRoute runs this again with the tile off.
func TestMaskedStrategiesMatchScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, sh := range dispatchShapes {
		m, n, samples := sh[0], sh[1], sh[2]
		a, ka := randomMasked(rng, m, samples)
		b, kb := randomMasked(rng, n, samples)
		want := make([]uint32, m*n*4)
		if err := MaskedReference(a, b, ka, kb, want, n); err != nil {
			t.Fatal(err)
		}
		for _, c := range []chunked{
			{Config{}, 0},
			{Config{MC: 4, NC: 6, KC: 5, Threads: 2}, 1},
		} {
			cfg := c.Config
			pinChunk(t, c.chunk)
			got := make([]uint32, m*n*4)
			if err := MaskedGemm(cfg, a, b, ka, kb, got, n); err != nil {
				t.Fatalf("shape %v: %v", sh, err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("shape %v cfg %+v: mismatch at %d: %d != %d",
						sh, cfg, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBatchedMultiSlabGroups shrinks maxGroupWords so every route — the
// batched family under the Go 4x4 at this k — runs a real multi-group
// pipeline: accumulation across slab groups through the double buffer must
// stay exact.
func TestBatchedMultiSlabGroups(t *testing.T) {
	saved := maxGroupWords
	maxGroupWords = 512
	defer func() { maxGroupWords = saved }()

	rng := rand.New(rand.NewSource(63))
	m, n, samples := 37, 41, 64*70 // many KC slabs per group budget
	a := randomMatrix(rng, m, samples)
	b := randomMatrix(rng, n, samples)
	want := make([]uint32, m*n)
	if err := Reference(a, b, want, n); err != nil {
		t.Fatal(err)
	}
	for _, k := range routeKernels {
		got := make([]uint32, m*n)
		cfg := Config{Kernel: k, KC: 8, Threads: 3}
		if err := Gemm(cfg, a, b, got, n); err != nil {
			t.Fatalf("kernel %q: %v", k.Name, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("kernel %q: mismatch at %d: %d != %d", k.Name, i, got[i], want[i])
			}
		}
	}
}

// TestAutoDispatchPicksByK pins the dispatch rule, observable through the
// driver's variant stats. With the vector tile available it is the engine
// at every k; with it off (a host without AVX-512 VPOPCNTDQ) short k runs
// the scalar kernel and long k the batched family (when a SIMD tier
// exists).
func TestAutoDispatchPicksByK(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	run := func(words int) DriverStats {
		g := randomMatrix(rng, 16, words*64)
		c := make([]uint32, 16*16)
		if err := Gemm(Config{}, g, g, c, 16); err != nil {
			t.Fatal(err)
		}
		return ReadStats()
	}

	if kernel.Default.Lanes > 1 {
		for _, words := range []int{4, 64} {
			before := ReadStats().PopcountsAvoided
			got := run(words)
			if got.Variant != kernel.AVX512Name || got.Popcount != "vector-avx512-vpopcntdq" {
				t.Fatalf("k = %d words dispatched to %q/%q, want %s/vector-avx512-vpopcntdq",
					words, got.Variant, got.Popcount, kernel.AVX512Name)
			}
			// One VPOPCNTQ serves 8 cells: fold 8 over 16·16·words triples.
			cells := uint64(16 * 16 * words)
			if avoided := got.PopcountsAvoided - before; avoided != cells-cells/8 {
				t.Fatalf("k = %d words: PopcountsAvoided grew by %d, want %d", words, avoided, cells-cells/8)
			}
		}
	}
	defer kernel.DisableVectorTileForTest()()

	short := run(CSAMinWords / 8) // k = 4 words on the default threshold
	if short.Variant != "4x4" || short.Popcount != "scalar" {
		t.Fatalf("short k dispatched to %q/%q, want 4x4/scalar", short.Variant, short.Popcount)
	}

	before := ReadStats().PopcountsAvoided
	long := run(CSAMinWords * 2)
	if !popcount.HasVector() {
		if long.Variant != "4x4" || long.Popcount != "scalar" {
			t.Skipf("no SIMD tier; long k stays scalar (%q/%q)", long.Variant, long.Popcount)
		}
		return
	}
	if long.Variant != "4x4-runs" || long.Popcount != "vector-"+popcount.VectorName() {
		t.Fatalf("long k dispatched to %q/%q, want 4x4-runs/vector-%s",
			long.Variant, long.Popcount, popcount.VectorName())
	}
	if long.PopcountsAvoided <= before {
		t.Fatal("batched call did not grow PopcountsAvoided")
	}
}

// TestPlainKernelResolution pins the one resolver of "which kernel runs":
// unset means the host default, and an explicit kernel — a Go shape or the
// tile — is the kernel that runs.
func TestPlainKernelResolution(t *testing.T) {
	if got := (Config{}).PlainKernel(); got.Name != kernel.Default.Name {
		t.Fatalf("unset kernel resolved to %q, want the default %q", got.Name, kernel.Default.Name)
	}
	if got := DefaultConfig().Kernel; got.Name != kernel.Default.Name {
		t.Fatalf("DefaultConfig kernel %q, want %q", got.Name, kernel.Default.Name)
	}
	for _, k := range []kernel.Kernel{kernel.Generic(8, 4), kernel.Portable, kernel.Default} {
		if got := (Config{Kernel: k}).PlainKernel(); got.Name != k.Name {
			t.Fatalf("explicit %q resolved to %q", k.Name, got.Name)
		}
	}
}

// TestDispatchRoutes pins README's route table row by row through what the
// driver reports: {unset, Go 4x4} × {one word below CSAMinWords, exactly
// CSAMinWords} × {plain, masked}, with the tile on (where the host has it)
// and off. The tile counts at every k; a Go kernel runs its own loop below
// the threshold and the batched family from it on a SIMD host, its own loop
// at every k without one. A masked call takes the default kernel's route,
// whichever kernel the config names.
func TestDispatchRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	vector := "vector-" + popcount.VectorName()
	goRoute := func(name string, kw int) [2]string {
		if kw >= CSAMinWords && popcount.HasVector() {
			return [2]string{name + "-runs", vector}
		}
		return [2]string{name, "scalar"}
	}
	check := func(t *testing.T) {
		for _, k := range routeKernels {
			for _, kw := range []int{CSAMinWords - 1, CSAMinWords} {
				g, mk := randomMasked(rng, 9, 64*kw)
				if err := Gemm(Config{Kernel: k}, g, g, make([]uint32, 81), 9); err != nil {
					t.Fatal(err)
				}
				want := goRoute(kernel.Portable.Name, kw)
				if k.Fn == nil && kernel.Default.Lanes > 1 {
					want = [2]string{kernel.AVX512Name, "vector-avx512-vpopcntdq"}
				}
				if s := ReadStats(); s.Variant != want[0] || s.Popcount != want[1] {
					t.Errorf("plain, kernel %q, kw = %d: ran %s / %s, want %s / %s", k.Name, kw, s.Variant, s.Popcount, want[0], want[1])
				}
				if err := MaskedGemm(Config{Kernel: k}, g, g, mk, mk, make([]uint32, 81*4), 9); err != nil {
					t.Fatal(err)
				}
				// A masked call runs the plain driver with the default
				// kernel, whatever kernel the config names.
				want = goRoute(kernel.Portable.Name, kw)
				if kernel.Default.Lanes > 1 {
					want = [2]string{kernel.AVX512Name, "vector-avx512-vpopcntdq"}
				}
				if s := ReadStats(); s.Variant != want[0] || s.Popcount != want[1] {
					t.Errorf("masked, kernel %q, kw = %d: ran %s / %s, want %s / %s", k.Name, kw, s.Variant, s.Popcount, want[0], want[1])
				}
			}
		}
	}
	if kernel.Default.Lanes > 1 {
		t.Run("tile", check)
	}
	defer kernel.DisableVectorTileForTest()()
	t.Run("portable", check)
}

// TestPortableRoute reruns the driver oracle tests and the row-run contract
// table as on a host without the vector tile, so one AVX-512 host checks
// the route everyone else runs. (The tests themselves run with the host
// default: the tile, where there is one.)
func TestPortableRoute(t *testing.T) {
	if kernel.Default.Lanes <= 1 {
		t.Skipf("the portable route is already this host's default (%s)", kernel.Default.Name)
	}
	defer kernel.DisableVectorTileForTest()()
	t.Run("GemmStrategies", TestGemmStrategiesMatchScalarOracle)
	t.Run("SyrkStrategies", TestSyrkStrategiesMatchScalarOracle)
	t.Run("MaskedStrategies", TestMaskedStrategiesMatchScalarOracle)
	t.Run("GemmRowRuns", TestGemmEpilogueCoversEachCellOnce)
	t.Run("SyrkRowRuns", TestSyrkEpilogueUpperTriangle)
}

// TestVectorDegradesWithoutSIMD pins what a Go kernel runs at long k on a
// host without a SIMD tier: its own scalar loop, never a batched route the
// host cannot vectorise.
func TestVectorDegradesWithoutSIMD(t *testing.T) {
	runs, variant, engine := plainRoute(kernel.Portable, 1024)
	if popcount.HasVector() {
		if !runs || variant != "4x4-runs" || engine != "vector-"+popcount.VectorName() {
			t.Fatalf("4x4 at 1024 words with SIMD: runs %v, %s / %s", runs, variant, engine)
		}
	} else if runs || variant != "4x4" || engine != "scalar" {
		t.Fatalf("4x4 at 1024 words without SIMD: runs %v, %s / %s", runs, variant, engine)
	}
}

// TestConcurrentBatchedSyrk mirrors the PR 4 shared-arena race exercise
// on the batched family (the Go 4x4 at 40 words, on a SIMD host), with
// MaskedSyrk — the default kernel's route over interleaved rows — beside
// it: 8 workers drive Syrk and MaskedSyrk concurrently, all sharing the
// arena pool.
func TestConcurrentBatchedSyrk(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	n, samples := 70, 64*40
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

	cfg := Config{Kernel: kernel.Portable, MC: 16, NC: 32, KC: 7, Threads: 3}
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
					t.Errorf("concurrent batched Syrk mismatch at %d", i)
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
					t.Errorf("concurrent batched MaskedSyrk mismatch at %d", i)
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

// TestBatchedEpilogueFusion checks every route at long k — the batched
// family under the Go 4x4 — composes with the fused tile epilogue: per-tile
// counts handed to the hook must equal the materialized matrix.
func TestBatchedEpilogueFusion(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	n, samples := 45, 64*36
	g := randomMatrix(rng, n, samples)
	want := make([]uint32, n*n)
	if err := Reference(g, g, want, n); err != nil {
		t.Fatal(err)
	}
	for _, k := range routeKernels {
		got := make([]uint32, n*n)
		var mu sync.Mutex
		cfg := Config{Kernel: k, MC: 8, NC: 16, KC: 9, Threads: 3}
		err := SyrkEpilogue(cfg, g, TileEpilogue(func(_ int, tile []uint32, ldt, i0, j0, mm, nn int) {
			mu.Lock()
			defer mu.Unlock()
			for i := 0; i < mm; i++ {
				for j := 0; j < nn; j++ {
					got[(i0+i)*n+j0+j] = tile[i*ldt+j]
				}
			}
		}))
		if err != nil {
			t.Fatalf("kernel %q: %v", k.Name, err)
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if got[i*n+j] != want[i*n+j] {
					t.Fatalf("kernel %q: fused mismatch at (%d,%d): %d != %d",
						k.Name, i, j, got[i*n+j], want[i*n+j])
				}
			}
		}
	}
}
