package blis

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/kernel"
)

// gatherEpilogue is a TileEpilogue that scatters finished tiles into a
// dense matrix. Tile writes are disjoint by contract, so no locking.
func gatherEpilogue(out []uint32, ldc int) TileEpilogue {
	return func(_ int, tile []uint32, ldt, i0, j0, mm, nn int) {
		for r := 0; r < mm; r++ {
			copy(out[(i0+r)*ldc+j0:(i0+r)*ldc+j0+nn], tile[r*ldt:r*ldt+nn])
		}
	}
}

func TestGemmEpilogueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	shapes := []struct{ m, n, samples int }{
		{1, 1, 1}, {1, 1, 64}, {5, 7, 65}, {16, 16, 128},
		{33, 47, 200}, {64, 64, 1000}, {100, 30, 64*7 + 13},
	}
	for _, k := range shapeKernels() {
		for _, sh := range shapes {
			a := randomMatrix(rng, sh.m, sh.samples)
			b := randomMatrix(rng, sh.n, sh.samples)
			got := make([]uint32, sh.m*sh.n)
			if err := GemmEpilogue(smallConfig(k, 3), a, b, gatherEpilogue(got, sh.n)); err != nil {
				t.Fatalf("%s %v: %v", k.Name, sh, err)
			}
			want := make([]uint32, sh.m*sh.n)
			if err := Reference(a, b, want, sh.n); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s %v: C[%d] = %d, want %d", k.Name, sh, i, got[i], want[i])
				}
			}
		}
	}
}

// epiRun is one TileEpilogue invocation as the contract tests record it.
type epiRun struct{ i0, j0, mm, nn int }

// checkRowRunContract runs one fused call and holds it to the TileEpilogue
// contract: every hook call is a row run of mm ≤ MR rows lying inside one
// scheduler job and ending at that job's right edge, each (job, panel)
// with computed cells is handed over exactly once, every computed cell —
// all of C, or under SYRK exactly the register tiles with i0 < j0+NR, the
// set the mirror ownership rule of internal/core is built on — is
// delivered exactly once with its fully reduced count, and no other cell
// is delivered at all.
func checkRowRunContract(t *testing.T, cfg Config, m, n, samples int, syrk bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m*1000 + n)))
	a := randomMatrix(rng, m, samples)
	b := a
	if !syrk {
		b = randomMatrix(rng, n, samples)
	}
	want := make([]uint32, m*n)
	if err := Reference(a, b, want, n); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var runs []epiRun
	seen := make([]int, m*n)
	epi := TileEpilogue(func(_ int, tile []uint32, ldt, i0, j0, mm, nn int) {
		mu.Lock()
		defer mu.Unlock()
		runs = append(runs, epiRun{i0, j0, mm, nn})
		for r := 0; r < mm; r++ {
			for c := 0; c < nn; c++ {
				seen[(i0+r)*n+j0+c]++
				if got := tile[r*ldt+c]; got != want[(i0+r)*n+j0+c] {
					t.Errorf("run (%d,%d): C[%d,%d] = %d, want %d", i0, j0, i0+r, j0+c, got, want[(i0+r)*n+j0+c])
				}
			}
		}
	})
	var err error
	if syrk {
		err = SyrkEpilogue(cfg, a, epi)
	} else {
		err = GemmEpilogue(cfg, a, b, epi)
	}
	if err != nil {
		t.Fatal(err)
	}

	norm, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	mr, nr := norm.Kernel.MR, norm.Kernel.NR
	mcBlk, ncBlk := roundUp(norm.MC, mr), roundUp(norm.NC, nr)

	// The computed set, from the tile rule alone.
	for i0 := 0; i0 < m; i0 += mr {
		for j0 := 0; j0 < n; j0 += nr {
			computed := 1
			if syrk && i0 >= j0+nr {
				computed = 0
			}
			for i := i0; i < min(i0+mr, m); i++ {
				for j := j0; j < min(j0+nr, n); j++ {
					if seen[i*n+j] != computed {
						t.Fatalf("cell (%d,%d) of tile (%d,%d) delivered %d times, want %d", i, j, i0, j0, seen[i*n+j], computed)
					}
				}
			}
		}
	}

	// The runs the scheduler's jobs imply: per job and MR-row panel, the
	// panel's computed tiles, as one span.
	expect := map[epiRun]int{}
	for jc := 0; jc < n; jc += ncBlk {
		nc := min(ncBlk, n-jc)
		target := norm.ChunkTiles
		if target == 0 {
			target = countTiles(m, jc, nc, mcBlk, mr, nr, syrk) / (callWorkers(norm.Threads, m, n, a.Words) * chunksPerWorker)
		}
		for _, jb := range buildTileJobs(nil, m, jc, nc, mcBlk, mr, nr, target, syrk) {
			for ir := 0; ir < jb.mc; ir += mr {
				i0 := jb.ic + ir
				for jr := jb.jr0; jr < jb.jr1; jr += nr {
					if syrk && i0 >= jc+jr+nr {
						continue
					}
					expect[epiRun{i0, jc + jr, min(mr, jb.mc-ir), min(jb.jr1, nc) - jr}]++
					break
				}
			}
		}
	}
	for _, r := range runs {
		if r.mm > mr {
			t.Fatalf("run %+v is taller than MR = %d", r, mr)
		}
		if expect[r] != 1 {
			t.Fatalf("run %+v is not one job's panel (or was handed over twice)", r)
		}
		expect[r]--
	}
	if len(runs) != len(expect) {
		t.Fatalf("%d runs delivered, the jobs hold %d panels with computed cells", len(runs), len(expect))
	}
}

// contractShapes are off multiples of every blocking parameter used below
// (MR/NR ∈ {3, 4, 5, 8}, MC ∈ {8, 12}, NC ∈ {12, 20}), plus degenerate and
// exactly-aligned ones.
var contractShapes = []struct{ m, n int }{
	{1, 1}, {3, 9}, {16, 24}, {37, 29}, {61, 43}, {65, 130},
}

// contractConfigs varies what decides where runs start and end: register
// tile shape, block sizes, chunking (1 tile per job, 7, derived), threads.
func contractConfigs() []Config {
	var cfgs []Config
	for _, k := range []kernel.Kernel{kernel.Default, kernel.Generic(8, 4), kernel.Generic(4, 8), kernel.Generic(3, 5)} {
		for _, chunk := range []int{1, 7, 0} {
			for _, threads := range []int{1, 3, 8} {
				cfgs = append(cfgs, Config{MC: 12, NC: 20, KC: 1, Kernel: k, ChunkTiles: chunk, Threads: threads})
			}
		}
	}
	return append(cfgs, Config{MC: 8, NC: 12, KC: 2, ChunkTiles: 7, Threads: 2}, Config{Threads: 5})
}

// contractSamples returns the two sample counts every contract config runs
// at: one that fits a single KC slab, so the call is streamed (each panel
// handed over from the worker's strip as soon as it is counted), and one
// spanning several slabs (panels handed over from the job's scratch after
// the last). The runs, the cells and the once-each rule are the same.
func contractSamples(t *testing.T, cfg Config) [2]int {
	t.Helper()
	norm, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	return [2]int{64*norm.KC - 7, 64*norm.KC*5 + 9}
}

// Every output cell must be handed to the epilogue exactly once, as row
// runs that respect job boundaries, whatever the blocking fringes, slab
// count and grouping, chunking and thread interleaving do.
func TestGemmEpilogueCoversEachCellOnce(t *testing.T) {
	old := maxGroupWords
	maxGroupWords = 64 // several slab groups: runs fire after the last only
	defer func() { maxGroupWords = old }()
	for _, cfg := range contractConfigs() {
		for _, samples := range contractSamples(t, cfg) {
			for _, sh := range contractShapes {
				checkRowRunContract(t, cfg, sh.m, sh.n, samples, false)
			}
		}
	}
}

// Under SYRK the delivered cells are exactly those of the register tiles
// with i0 < j0+NR: the upper triangle plus the diagonal-crossing tiles,
// whose below-diagonal cells hold correct counts as a by-product.
func TestSyrkEpilogueUpperTriangle(t *testing.T) {
	old := maxGroupWords
	maxGroupWords = 64
	defer func() { maxGroupWords = old }()
	for _, cfg := range contractConfigs() {
		for _, samples := range contractSamples(t, cfg) {
			for _, sh := range contractShapes {
				checkRowRunContract(t, cfg, sh.n, sh.n, samples, true)
			}
		}
	}
}

// The contract on a call large enough to keep four workers busy, in both
// orders; under the race detector it is what watches four workers stream
// through their strips at once.
func TestEpilogueContractFourWorkers(t *testing.T) {
	cfg := Config{MC: 64, NC: 256, KC: 8, Threads: 4}
	const m, n = 600, 900
	for _, samples := range contractSamples(t, cfg) {
		checkRowRunContract(t, cfg, m, n, samples, false)
		checkRowRunContract(t, cfg, n, n, samples, true)
	}
}

// Shrinking maxGroupWords forces every column block through many KC slab
// groups, exercising cross-group accumulation in the per-job scratch: the
// epilogue must still see fully reduced counts, fired only after the
// final group.
func TestEpilogueManySlabGroups(t *testing.T) {
	old := maxGroupWords
	maxGroupWords = 2
	defer func() { maxGroupWords = old }()

	rng := rand.New(rand.NewSource(13))
	a := randomMatrix(rng, 37, 64*11+5) // 12 words → ≥6 slab groups
	b := randomMatrix(rng, 29, 64*11+5)
	got := make([]uint32, 37*29)
	onPoisonedScratch(t, 64*64, func() error {
		return GemmEpilogue(Config{MC: 8, NC: 12, KC: 1, Threads: 3}, a, b, gatherEpilogue(got, 29))
	})
	want := make([]uint32, 37*29)
	if err := Reference(a, b, want, 29); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("C[%d] = %d, want %d", i, got[i], want[i])
		}
	}

	sgot := make([]uint32, 37*37)
	onPoisonedScratch(t, 64*64, func() error {
		return SyrkEpilogue(Config{MC: 8, NC: 12, KC: 1, Threads: 3}, a, gatherEpilogue(sgot, 37))
	})
	swant := make([]uint32, 37*37)
	if err := Reference(a, a, swant, 37); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 37; i++ {
		for j := i; j < 37; j++ {
			if sgot[i*37+j] != swant[i*37+j] {
				t.Fatalf("syrk C[%d,%d] = %d, want %d", i, j, sgot[i*37+j], swant[i*37+j])
			}
		}
	}
}

// onPoisonedScratch runs one fused driver call on recycled count scratch of
// all-ones cells — the column block's scratch, `cells` of them, and a strip
// of as many for each of eight workers: it empties the arena pool, leaves
// one arena holding those buffers, and makes the call. No delivered count
// may depend on what they held — the first slab of a job stores, nothing
// clears — so a caller's comparison against Reference is the assertion;
// this helper's own is that the call really ran on the poison (it wrote
// into the scratch, or streamed through a strip). sync.Pool may drop a Put
// (it does, at random, under the race detector), hence the retries.
func onPoisonedScratch(t *testing.T, cells int, call func() error) {
	t.Helper()
	isPoison := func(v uint32) bool { return v == ^uint32(0) }
	poisoned := func() []uint32 {
		b := make([]uint32, cells)
		for i := range b {
			b[i] = ^uint32(0)
		}
		return b
	}
	for attempt := 0; attempt < 10; attempt++ {
		for len(arenaPool.Get().(*arena).ws) > 0 {
			// A used arena; one fresh from New means the pool is empty.
		}
		ar := &arena{cscratch: poisoned()}
		bufs := [][]uint32{ar.cscratch}
		for range 8 {
			w := &tileWorker{strip: poisoned()}
			ar.ws = append(ar.ws, w)
			bufs = append(bufs, w.strip)
		}
		arenaPool.Put(ar)
		if err := call(); err != nil {
			t.Fatal(err)
		}
		written := false
		for _, b := range bufs {
			if !slices.ContainsFunc(b, isPoison) {
				t.Fatalf("%d poisoned cells were all overwritten: the scratch was sized too small to prove anything", cells)
			}
			written = written || slices.ContainsFunc(b, func(v uint32) bool { return !isPoison(v) })
		}
		if written {
			return
		}
	}
	t.Fatal("the driver never ran on the poisoned scratch")
}

// TestEpilogueIgnoresScratchContents is the guarantee that replaced the
// per-job clear: every count a fused call delivers equals Reference when
// the recycled scratch starts as all-ones. It crosses what decides which
// op writes a cell first — fringe rows and columns (m, n off every register
// tile), SYRK diagonal-crossing tiles, one slab (the streamed order, through
// the workers' strips), several slabs per group, several groups, several
// column blocks — with all four tileOps families (the two interleaved ones
// below CSAMinWords, the two batched ones from it under the Go 4x4 and the
// masked driver on a SIMD host), on the vector tile's route and the
// portable one, at 1 and 4 threads.
func TestEpilogueIgnoresScratchContents(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const m, n = 37, 43
	reference := func(a, b *bitmat.Matrix, ka, kb *bitmat.Mask) (plain, masked []uint32) {
		plain, masked = make([]uint32, a.SNPs*b.SNPs), make([]uint32, a.SNPs*b.SNPs*4)
		if err := Reference(a, b, plain, b.SNPs); err != nil {
			t.Fatal(err)
		}
		if err := MaskedReference(a, b, ka, kb, masked, b.SNPs); err != nil {
			t.Fatal(err)
		}
		return plain, masked
	}
	type input struct {
		kw                                 int
		a, b                               *bitmat.Matrix
		ka, kb                             *bitmat.Mask
		gemm, maskedGemm, syrk, maskedSyrk []uint32
	}
	var inputs []input
	for _, samples := range []int{64*6 + 5, 64*CSAMinWords + 5} {
		in := input{kw: bitmat.WordsFor(samples)}
		in.a, in.ka = randomMasked(rng, m, samples)
		in.b, in.kb = randomMasked(rng, n, samples)
		in.gemm, in.maskedGemm = reference(in.a, in.b, in.ka, in.kb)
		in.syrk, in.maskedSyrk = reference(in.b, in.b, in.kb, in.kb)
		inputs = append(inputs, in)
	}
	// check compares every delivered cell (cells uint32s each) with want.
	check := func(name string, want []uint32, cells int) TileEpilogue {
		return func(_ int, tile []uint32, ldt, i0, j0, mm, nn int) {
			for r := 0; r < mm; r++ {
				got := tile[r*ldt*cells:][:nn*cells]
				if w := want[((i0+r)*n+j0)*cells:][:nn*cells]; !slices.Equal(got, w) {
					t.Errorf("%s: row %d from column %d = %v, want %v", name, i0+r, j0, got, w)
				}
			}
		}
	}

	oldGroup := maxGroupWords
	defer func() { maxGroupWords = oldGroup }()
	route := func(t *testing.T) {
		for _, in := range inputs {
			blockings := []struct {
				cfg        Config
				groupWords int
			}{
				{Config{MC: 16, NC: 24, KC: in.kw}, oldGroup}, // one slab: streamed, panel by panel through a strip
				{Config{MC: 16, NC: 24, KC: 2}, oldGroup},     // column blocks; one group of slabs
				{Config{MC: 16, NC: 24, KC: 1}, 2},            // every slab its own group
				{Config{KC: 2}, 300},                          // groups of several slabs
			}
			for _, bl := range blockings {
				maxGroupWords = bl.groupWords
				for _, k := range routeKernels {
					for _, threads := range []int{1, 4} {
						cfg := bl.cfg
						cfg.Kernel, cfg.Threads = k, threads
						const scratch = 4 * 64 * 64
						onPoisonedScratch(t, scratch, func() error {
							return GemmEpilogue(cfg, in.a, in.b, check("gemm", in.gemm, 1))
						})
						onPoisonedScratch(t, scratch, func() error {
							return SyrkEpilogue(cfg, in.b, check("syrk", in.syrk, 1))
						})
						onPoisonedScratch(t, scratch, func() error {
							return MaskedGemmEpilogue(cfg, in.a, in.b, in.ka, in.kb, check("masked gemm", in.maskedGemm, 4))
						})
						onPoisonedScratch(t, scratch, func() error {
							return MaskedSyrkEpilogue(cfg, in.b, in.kb, check("masked syrk", in.maskedSyrk, 4))
						})
						if t.Failed() {
							t.Fatalf("failed at %+v, %d words, maxGroupWords %d", cfg, in.kw, bl.groupWords)
						}
					}
				}
			}
		}
	}
	t.Run("host-default", route)
	if kernel.Default.Lanes > 1 {
		defer kernel.DisableVectorTileForTest()()
		t.Run("portable", route)
	}
}

func TestMaskedGemmEpilogueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	shapes := []struct{ m, n, samples int }{
		{1, 1, 10}, {3, 5, 64}, {17, 9, 130}, {40, 40, 333},
	}
	for _, sh := range shapes {
		a, ka := randomMasked(rng, sh.m, sh.samples)
		b, kb := randomMasked(rng, sh.n, sh.samples)
		got := make([]uint32, sh.m*sh.n*4)
		epi := TileEpilogue(func(_ int, tile []uint32, ldt, i0, j0, mm, nn int) {
			for r := 0; r < mm; r++ {
				copy(got[((i0+r)*sh.n+j0)*4:((i0+r)*sh.n+j0+nn)*4], tile[r*ldt*4:(r*ldt+nn)*4])
			}
		})
		cfg := Config{MC: 7, NC: 9, KC: 2, Threads: 3}
		if err := MaskedGemmEpilogue(cfg, a, b, ka, kb, epi); err != nil {
			t.Fatal(err)
		}
		want := make([]uint32, sh.m*sh.n*4)
		if err := MaskedReference(a, b, ka, kb, want, sh.n); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: masked C[%d] = %d, want %d", sh, i, got[i], want[i])
			}
		}
	}
}

func TestMaskedSyrkEpilogueUpperTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const n = 25
	a, ka := randomMasked(rng, n, 200)
	got := make([]uint32, n*n*4)
	epi := TileEpilogue(func(_ int, tile []uint32, ldt, i0, j0, mm, nn int) {
		for r := 0; r < mm; r++ {
			copy(got[((i0+r)*n+j0)*4:((i0+r)*n+j0+nn)*4], tile[r*ldt*4:(r*ldt+nn)*4])
		}
	})
	if err := MaskedSyrkEpilogue(Config{MC: 6, NC: 10, KC: 1, Threads: 2}, a, ka, epi); err != nil {
		t.Fatal(err)
	}
	want := make([]uint32, n*n*4)
	if err := MaskedReference(a, a, ka, ka, want, n); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			for k := 0; k < 4; k++ {
				if got[(i*n+j)*4+k] != want[(i*n+j)*4+k] {
					t.Fatalf("masked C[%d,%d][%d] = %d, want %d",
						i, j, k, got[(i*n+j)*4+k], want[(i*n+j)*4+k])
				}
			}
		}
	}
}

func TestEpilogueErrors(t *testing.T) {
	a := bitmat.New(3, 10)
	if err := GemmEpilogue(Config{}, a, bitmat.New(3, 11), TileEpilogue(func(int, []uint32, int, int, int, int, int) {})); err == nil {
		t.Fatal("sample mismatch accepted")
	}
	if err := GemmEpilogue(Config{}, a, bitmat.New(3, 10), nil); err == nil {
		t.Fatal("nil epilogue accepted")
	}
	if err := SyrkEpilogue(Config{}, a, nil); err == nil {
		t.Fatal("nil epilogue accepted")
	}
}

// The fused path must report its work on the driver counters: tiles
// fused, time spent in epilogues, and the count-matrix bytes it avoided
// materializing.
func TestEpilogueStats(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := randomMatrix(rng, 50, 300)
	b := randomMatrix(rng, 40, 300)
	before := ReadStats()
	if err := GemmEpilogue(Config{Threads: 2}, a, b, TileEpilogue(func(int, []uint32, int, int, int, int, int) {})); err != nil {
		t.Fatal(err)
	}
	after := ReadStats()
	if after.EpilogueTiles <= before.EpilogueTiles {
		t.Fatalf("EpilogueTiles did not advance: %d -> %d", before.EpilogueTiles, after.EpilogueTiles)
	}
	if want := before.EpilogueBytesAvoided + 50*40*4; after.EpilogueBytesAvoided != want {
		t.Fatalf("EpilogueBytesAvoided = %d, want %d", after.EpilogueBytesAvoided, want)
	}
}

// Race check: many workers firing epilogues that write a shared output
// through the disjoint-tile contract. Run with -race.
func TestEpilogueConcurrentWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randomMatrix(rng, 160, 500)
	b := randomMatrix(rng, 140, 500)
	got := make([]uint32, 160*140)
	if err := GemmEpilogue(Config{MC: 16, NC: 24, KC: 2, Threads: 8}, a, b, gatherEpilogue(got, 140)); err != nil {
		t.Fatal(err)
	}
	want := make([]uint32, 160*140)
	if err := Reference(a, b, want, 140); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("C[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}
