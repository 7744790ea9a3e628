package blis

import (
	"math/rand"
	"sync"
	"testing"

	"ldgemm/internal/kernel"
	"ldgemm/internal/popcount"
)

// explicitStrategies is every engine an operator can force; Auto is
// covered separately because its resolution depends on k.
var explicitStrategies = []PopcountStrategy{PopcountScalar, PopcountCSA, PopcountVector}

// dispatchShapes stresses the batched family at its boundaries: m, n not
// multiples of MR/NR, and sample words not multiples of the fold widths
// (16 for CSA, 8/4 for the SIMD tiers). Samples are in bits; 64 samples
// = 1 word.
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
		for _, strat := range explicitStrategies {
			for _, cfg := range []Config{
				{Popcount: strat},
				{Popcount: strat, MC: 5, NC: 7, KC: 3, Threads: 3},
				{Popcount: strat, MC: 8, NC: 16, KC: 7, Threads: 2, ChunkTiles: 1},
			} {
				got := make([]uint32, m*ldc)
				if err := Gemm(cfg, a, b, got, ldc); err != nil {
					t.Fatalf("shape %v %v: %v", sh, strat, err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("shape %v strategy %v cfg %+v: mismatch at %d: %d != %d",
							sh, strat, cfg, i, got[i], want[i])
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
		// Auto rides along: whatever engine it resolves to at this k must
		// fill the same triangle as the scalar oracle.
		for _, strat := range append([]PopcountStrategy{PopcountAuto}, explicitStrategies...) {
			// Defaults keep NC wide, exercising the pack-sharing path the
			// run layout must preserve; the small config forces fringe
			// tiles and multi-slab groups.
			for _, cfg := range []Config{
				{Popcount: strat},
				{Popcount: strat, MC: 4, NC: 8, KC: 5, Threads: 3, ChunkTiles: 1},
			} {
				got := make([]uint32, n*n)
				if err := Syrk(cfg, g, got, n, true); err != nil {
					t.Fatalf("n=%d %v: %v", n, strat, err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d strategy %v: mismatch at %d: %d != %d",
							n, strat, i, got[i], want[i])
					}
				}
			}
		}
	}
}

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
		for _, strat := range explicitStrategies {
			for _, cfg := range []Config{
				{Popcount: strat},
				{Popcount: strat, MC: 4, NC: 6, KC: 5, Threads: 2, ChunkTiles: 1},
			} {
				got := make([]uint32, m*n*4)
				if err := MaskedGemm(cfg, a, b, ka, kb, got, n); err != nil {
					t.Fatalf("shape %v %v: %v", sh, strat, err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("shape %v strategy %v: mismatch at %d: %d != %d",
							sh, strat, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestBatchedMultiSlabGroups shrinks maxGroupWords so the batched family
// runs a real multi-group pipeline — accumulation across slab groups
// through the double buffer must stay exact.
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
	for _, strat := range explicitStrategies {
		got := make([]uint32, m*n)
		cfg := Config{Popcount: strat, KC: 8, Threads: 3}
		if err := Gemm(cfg, a, b, got, n); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: mismatch at %d: %d != %d", strat, i, got[i], want[i])
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

	if _, err := kernel.ByName(kernel.AVX512Name); err == nil {
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
// unset means the host default, an explicit kernel is kept, and the vector
// tile steps aside for the portable 4x4 under a forced scalar or CSA
// strategy — so those two stay portable oracles on every host.
func TestPlainKernelResolution(t *testing.T) {
	if got := (Config{}).PlainKernel(); got.Name != kernel.Default.Name {
		t.Fatalf("unset kernel resolved to %q, want the default %q", got.Name, kernel.Default.Name)
	}
	if got := DefaultConfig().Kernel; got.Name != kernel.Default.Name {
		t.Fatalf("DefaultConfig kernel %q, want %q", got.Name, kernel.Default.Name)
	}
	for _, s := range []PopcountStrategy{PopcountAuto, PopcountScalar, PopcountCSA, PopcountVector} {
		if got := (Config{Kernel: kernel.Fixed[3], Popcount: s}).PlainKernel(); got.Name != "8x4" {
			t.Fatalf("explicit 8x4 under %v resolved to %q", s, got.Name)
		}
	}
	tile, err := kernel.ByName(kernel.AVX512Name)
	if err != nil {
		t.Skipf("no vector tile to resolve: %v", err)
	}
	for s, want := range map[PopcountStrategy]string{
		PopcountAuto: tile.Name, PopcountVector: tile.Name,
		PopcountScalar: kernel.Portable.Name, PopcountCSA: kernel.Portable.Name,
	} {
		got := (Config{Kernel: tile, Popcount: s}).PlainKernel()
		if got.Name != want {
			t.Fatalf("tile under %v resolved to %q, want %q", s, got.Name, want)
		}
		if eng := plainEngine(got, s, 4); (got.Lanes > 1) != (eng == PopcountVector) {
			t.Fatalf("tile under %v at k = 4 words: kernel %q, engine %v", s, got.Name, eng)
		}
	}
}

// TestPortableRoute reruns the driver oracle tests and the row-run contract
// table as on a host without the vector tile, so one AVX-512 host checks
// the route everyone else runs. (The tests themselves run with the host
// default: the tile, where there is one.)
func TestPortableRoute(t *testing.T) {
	if _, err := kernel.ByName(kernel.AVX512Name); err != nil {
		t.Skipf("the portable route is already this host's default: %v", err)
	}
	defer kernel.DisableVectorTileForTest()()
	t.Run("GemmStrategies", TestGemmStrategiesMatchScalarOracle)
	t.Run("SyrkStrategies", TestSyrkStrategiesMatchScalarOracle)
	t.Run("GemmRowRuns", TestGemmEpilogueCoversEachCellOnce)
	t.Run("SyrkRowRuns", TestSyrkEpilogueUpperTriangle)
}

// TestVectorDegradesWithoutSIMD pins the explicit-vector fallback: a host
// with no SIMD tier must land on the CSA engine, never fail.
func TestVectorDegradesWithoutSIMD(t *testing.T) {
	got := resolvePopcount(PopcountVector, 1024)
	if popcount.HasVector() {
		if got != PopcountVector {
			t.Fatalf("resolvePopcount(Vector) = %v with SIMD available", got)
		}
	} else if got != PopcountCSA {
		t.Fatalf("resolvePopcount(Vector) = %v without SIMD, want CSA", got)
	}
}

func TestParsePopcountRoundTrip(t *testing.T) {
	for _, s := range []PopcountStrategy{PopcountAuto, PopcountScalar, PopcountCSA, PopcountVector} {
		got, err := ParsePopcount(s.String())
		if err != nil || got != s {
			t.Fatalf("ParsePopcount(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParsePopcount("simd"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if got, err := ParsePopcount(""); err != nil || got != PopcountAuto {
		t.Fatalf("empty strategy = %v, %v; want auto", got, err)
	}
}

// TestConcurrentBatchedSyrk mirrors the PR 4 shared-arena race exercise
// with the batched family forced: 8 workers drive Syrk and MaskedSyrk
// through the vector engine concurrently, all sharing the arena pool.
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

	cfg := Config{Popcount: PopcountVector, MC: 16, NC: 32, KC: 7, Threads: 3, ChunkTiles: 1}
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

// TestBatchedEpilogueFusion checks the batched family composes with the
// fused tile epilogue: per-tile counts handed to the hook must equal the
// materialized matrix.
func TestBatchedEpilogueFusion(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	n, samples := 45, 64*36
	g := randomMatrix(rng, n, samples)
	want := make([]uint32, n*n)
	if err := Reference(g, g, want, n); err != nil {
		t.Fatal(err)
	}
	for _, strat := range explicitStrategies {
		got := make([]uint32, n*n)
		var mu sync.Mutex
		cfg := Config{Popcount: strat, MC: 8, NC: 16, KC: 9, Threads: 3}
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
			t.Fatalf("%v: %v", strat, err)
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if got[i*n+j] != want[i*n+j] {
					t.Fatalf("%v: fused mismatch at (%d,%d): %d != %d",
						strat, i, j, got[i*n+j], want[i*n+j])
				}
			}
		}
	}
}
