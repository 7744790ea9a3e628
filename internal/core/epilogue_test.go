package core

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/kernel"
)

// measureSets covers every combination the API exposes (zero = default r²).
var measureSets = []Measure{
	0, MeasureD, MeasureR2, MeasureDPrime,
	MeasureD | MeasureR2, MeasureR2 | MeasureDPrime,
	MeasureD | MeasureR2 | MeasureDPrime,
}

// bitsEqual compares float64 slices bit for bit (NaN-safe, −0 ≠ +0).
func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: presence mismatch (got %v, want %v)", name, got != nil, want != nil)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x (%g), want %x (%g)",
				name, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

func bitsEqualResults(t *testing.T, got, want *Result) {
	t.Helper()
	bitsEqual(t, "D", got.D, want.D)
	bitsEqual(t, "R2", got.R2, want.R2)
	bitsEqual(t, "DPrime", got.DPrime, want.DPrime)
}

// fringeConfig forces many blocking fringes so register-tile edges, partial
// column blocks, and the SYRK diagonal crossing all occur on small inputs.
func fringeConfig(threads int) blis.Config {
	return blis.Config{MC: 12, NC: 20, KC: 3, Threads: threads}
}

// The golden contract: the fused per-tile epilogue produces bit-identical
// measures to the split sweep over the dense counts (the route KeepCounts
// takes), for every measure combination and across fringe shapes
// (n % MR ≠ 0, n < NR, n = 1).
func TestMatrixFusedMatchesSplitBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 3, 13, 50, 67} {
		g := randomMatrix(rng, n, 65)
		for _, meas := range measureSets {
			opt := Options{Measures: meas, Blis: fringeConfig(3)}
			fused, err := Matrix(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Measures |= KeepCounts
			split, err := Matrix(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqualResults(t, fused, split)
		}
	}
}

func TestMatrixFusedDefaultConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomMatrix(rng, 131, 300)
	fused, err := Matrix(g, Options{Measures: MeasureD | MeasureR2 | MeasureDPrime})
	if err != nil {
		t.Fatal(err)
	}
	split, err := Matrix(g, Options{
		Measures: MeasureD | MeasureR2 | MeasureDPrime | KeepCounts,
	})
	if err != nil {
		t.Fatal(err)
	}
	bitsEqualResults(t, fused, split)
}

func TestCrossFusedMatchesSplitBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := []struct{ m, n int }{{1, 1}, {5, 3}, {13, 40}, {50, 27}}
	for _, sh := range shapes {
		a := randomMatrix(rng, sh.m, 100)
		b := randomMatrix(rng, sh.n, 100)
		for _, meas := range measureSets {
			opt := Options{Measures: meas, Blis: fringeConfig(2)}
			fused, err := Cross(a, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Measures |= KeepCounts
			split, err := Cross(a, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqualResults(t, fused, split)
		}
	}
}

// The SYRK mirror copies computed floats instead of reconverting, so both
// triangles must hold identical bits.
func TestMatrixFusedSymmetryBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomMatrix(rng, 61, 200)
	res, err := Matrix(g, Options{
		Measures: MeasureD | MeasureR2 | MeasureDPrime,
		Blis:     fringeConfig(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name string
		v    []float64
	}{{"D", res.D}, {"R2", res.R2}, {"DPrime", res.DPrime}} {
		for i := 0; i < 61; i++ {
			for j := 0; j < i; j++ {
				lo, hi := m.v[i*61+j], m.v[j*61+i]
				if math.Float64bits(lo) != math.Float64bits(hi) {
					t.Fatalf("%s asymmetric at (%d,%d): %x vs %x",
						m.name, i, j, math.Float64bits(lo), math.Float64bits(hi))
				}
			}
		}
	}
}

// FastR2 trades the exact quotient for reciprocal multiplies: values may
// move in the last ulps but must stay numerically tight and — because the
// mirror copies floats — exactly symmetric.
func TestMatrixFastR2(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomMatrix(rng, 47, 150)
	exact, err := Matrix(g, Options{Blis: fringeConfig(2)})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Matrix(g, Options{Blis: fringeConfig(2), FastR2: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fast.R2 {
		if d := math.Abs(fast.R2[i] - exact.R2[i]); d > 1e-9 {
			t.Fatalf("FastR2[%d] = %g, exact %g (Δ %g)", i, fast.R2[i], exact.R2[i], d)
		}
	}
	for i := 0; i < 47; i++ {
		for j := 0; j < i; j++ {
			if math.Float64bits(fast.R2[i*47+j]) != math.Float64bits(fast.R2[j*47+i]) {
				t.Fatalf("FastR2 asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

// KeepCounts cannot run fused (its contract is the dense counts): the
// counts must be present, exact, and the measures identical to the fused
// pipeline's.
func TestKeepCountsStillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 33
	g := randomMatrix(rng, n, 80)
	res, err := Matrix(g, Options{
		Measures: MeasureR2 | KeepCounts, Blis: fringeConfig(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts == nil {
		t.Fatal("KeepCounts dropped the count matrix")
	}
	want := make([]uint32, n*n)
	if err := blis.Reference(g, g, want, n); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Counts[i] != want[i] {
			t.Fatalf("Counts[%d] = %d, want %d", i, res.Counts[i], want[i])
		}
	}
	fused, err := Matrix(g, Options{Measures: MeasureR2, Blis: fringeConfig(2)})
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "R2", res.R2, fused.R2)
}

func TestMaskedMatrixFusedMatchesSplitBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 3, 21, 40} {
		g, k := randomMaskedPair(rng, n, 130)
		for _, meas := range measureSets {
			opt := Options{Measures: meas, Blis: fringeConfig(3)}
			fused, err := MaskedMatrix(g, k, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Measures |= KeepCounts
			split, err := MaskedMatrix(g, k, opt)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqualResults(t, fused, split)
		}
	}
}

// streamDense collects a Stream scan into a dense row-major matrix.
func streamDense(t *testing.T, g *bitmat.Matrix, opt StreamOptions) []float64 {
	t.Helper()
	out := make([]float64, g.SNPs*g.SNPs)
	for i := range out {
		out[i] = math.NaN() // poison unvisited cells
	}
	err := Stream(g, opt, func(i, j0 int, row []float64) {
		copy(out[i*g.SNPs+j0:], row)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// splitStream is what a count-then-convert scan delivers, as a dense
// matrix: the split sweep of Matrix (PairFromFreqs per cell) for every
// statistic, except that a non-Exact r² scan trades the quotient for the
// reciprocal product, spelled out here over the reference counts.
func splitStream(t *testing.T, g *bitmat.Matrix, meas Measure, exact bool) []float64 {
	t.Helper()
	n := g.SNPs
	if meas&MeasureR2 != 0 && !exact {
		counts := make([]uint32, n*n)
		if err := blis.Reference(g, g, counts, n); err != nil {
			t.Fatal(err)
		}
		p, out := AlleleFrequencies(g), make([]float64, n*n)
		iv := make([]float64, n)
		for i, pi := range p {
			if v := pi * (1 - pi); v > 0 {
				iv[i] = 1 / v
			}
		}
		inv := 1 / float64(g.Samples)
		for i := range n {
			for j := range n {
				d := float64(counts[i*n+j])*inv - p[i]*p[j]
				out[i*n+j] = d * d * (iv[i] * iv[j])
			}
		}
		return out
	}
	res, err := Matrix(g, Options{Measures: meas | KeepCounts, Blis: fringeConfig(2)})
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case meas&MeasureR2 != 0:
		return res.R2
	case meas&MeasureD != 0:
		return res.D
	default:
		return res.DPrime
	}
}

func TestStreamFusedMatchesSplitBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomMatrix(rng, 53, 120)
	n := g.SNPs
	for _, triangular := range []bool{false, true} {
		for _, exact := range []bool{false, true} {
			for _, meas := range []Measure{MeasureR2, MeasureD, MeasureDPrime} {
				opt := StreamOptions{
					Options:    Options{Measures: meas, Blis: fringeConfig(2)},
					StripeRows: 17, Triangular: triangular, Exact: exact,
				}
				fused := streamDense(t, g, opt)
				split := splitStream(t, g, meas, exact)
				for i := range fused {
					if triangular && i%n < i/n {
						if !math.IsNaN(fused[i]) {
							t.Fatalf("tri=%v exact=%v meas=%b: cell %d below the diagonal was visited",
								triangular, exact, meas, i)
						}
						continue
					}
					fb, sb := math.Float64bits(fused[i]), math.Float64bits(split[i])
					if fb != sb {
						t.Fatalf("tri=%v exact=%v meas=%b: cell %d = %x, want %x",
							triangular, exact, meas, i, fb, sb)
					}
				}
			}
		}
	}
}

// TestPortableRouteBitwise reruns the fused-vs-split and mirror-symmetry
// contracts as on a host without the vector tile: the SYRK mirror-ownership
// rule reads the register-tile shape from the same resolver as the driver,
// so both defaults (8×8 tile, 4×4 portable) must partition the triangle.
func TestPortableRouteBitwise(t *testing.T) {
	if kernel.Default.Lanes <= 1 {
		t.Skipf("the portable route is already this host's default (%s)", kernel.Default.Name)
	}
	defer kernel.DisableVectorTileForTest()()
	t.Run("StreamFusedMatchesSplit", TestStreamFusedMatchesSplitBitwise)
	t.Run("MatrixFusedSymmetry", TestMatrixFusedSymmetryBitwise)
}

// Streamed values must also agree with the dense Matrix outputs when Exact
// is set — the contract the tile store's precompute/serve path rides.
func TestStreamExactMatchesMatrixBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomMatrix(rng, 41, 90)
	dense, err := Matrix(g, Options{Measures: MeasureR2, Blis: fringeConfig(2)})
	if err != nil {
		t.Fatal(err)
	}
	streamed := streamDense(t, g, StreamOptions{
		Options:    Options{Measures: MeasureR2, Blis: fringeConfig(2)},
		StripeRows: 10, Triangular: true, Exact: true,
	})
	for i := 0; i < 41; i++ {
		for j := i; j < 41; j++ {
			sb, db := math.Float64bits(streamed[i*41+j]), math.Float64bits(dense.R2[i*41+j])
			if sb != db {
				t.Fatalf("stream (%d,%d) = %x, dense %x", i, j, sb, db)
			}
		}
	}
}

// allocBytes measures TotalAlloc across one call after a warm-up call has
// populated the blis arena pool. The arenas live in a process-wide
// sync.Pool that every collection empties and whose per-P slots a call on
// another P cannot see: how many a call has to allocate afresh is timing,
// not the property under test. So the collector is held off throughout,
// and since a pool miss can only add bytes, the least of three calls is
// the one that measured the call itself.
func allocBytes(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f() // warm the pack/scratch arenas
	least := uint64(math.MaxUint64)
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	return least
}

// The point of the fusion, asserted: only a caller that asks for the
// counts (KeepCounts, the split pipeline) pays for the dense n²·4-byte
// count matrix; the fused pipeline never allocates it.
func TestMatrixFusedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	rng := rand.New(rand.NewSource(10))
	const n = 512
	g := randomMatrix(rng, n, 256)
	run := func(meas Measure) func() {
		return func() {
			if _, err := Matrix(g, Options{Measures: meas, Blis: blis.Config{Threads: 2}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	fused := allocBytes(run(MeasureR2))
	split := allocBytes(run(MeasureR2 | KeepCounts))
	counts := uint64(n * n * 4)
	// Both paths allocate the n²·8 R2 result; only split adds the count
	// matrix, which it returns as Result.Counts — the one allocation of
	// that size, so it is the whole gap. Allow slack for pool misses and
	// runtime noise, but the gap must show most of the count matrix gone.
	if fused+counts/2 > split {
		t.Fatalf("fused path allocated %d bytes vs split %d — count matrix (%d) not eliminated",
			fused, split, counts)
	}
	if budget := uint64(n*n*8) + counts/2; fused > budget {
		t.Fatalf("fused path allocated %d bytes, budget %d (result + slack)", fused, budget)
	}
}

// cutIntoTiles is the per-tile walk the row-run contract replaced, kept as
// a test oracle: it cuts every run the driver hands over back into
// register tiles of at most nr columns and feeds them to the same hook.
// cells is uint32 counts per C entry (1 plain, 4 masked).
func cutIntoTiles(hook blis.TileEpilogue, nr, cells int) blis.TileEpilogue {
	return func(w int, t []uint32, ldt, i0, j0, mm, nn int) {
		for c := 0; c < nn; c += nr {
			hook(w, t[c*cells:], ldt, i0, j0+c, mm, min(nr, nn-c))
		}
	}
}

// withMonomorphic fixes two SNPs of g (all-ancestral, all-derived) so the
// zero-variance branches of every measure run.
func withMonomorphic(g *bitmat.Matrix) *bitmat.Matrix {
	if g.SNPs < 5 {
		return g
	}
	clear(g.SNP(1))
	for s := 0; s < g.Samples; s++ {
		g.SetBit(g.SNPs-2, s)
	}
	return g
}

// A hook must produce the same bits whether it is handed whole row runs or
// the register tiles they consist of: every cell's value and its mirror
// ownership depend on the cell alone. Dense epilogue: every measure
// combination × exact/fast r² × SYRK-with-mirror / GEMM × register-tile
// shapes (3x5 makes the mirror bound differ between rows of one panel), on
// shapes off multiples of the tile and block sizes, monomorphic SNPs
// included. The mirrored uncut run must also be what the split pipeline
// returns (exact r² only: that sweep has no reciprocal path).
func TestDenseEpilogueRunsMatchTilesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	kernels := []kernel.Kernel{kernel.Default, kernel.Generic(8, 4), kernel.Generic(4, 8), kernel.Generic(3, 5)}
	for _, n := range []int{5, 67, 131} {
		g := withMonomorphic(randomMatrix(rng, n, 77))
		b := withMonomorphic(randomMatrix(rng, n+9, 77))
		p, pb := AlleleFrequencies(g), AlleleFrequencies(b)
		for _, k := range kernels {
			for _, meas := range measureSets {
				for _, fast := range []bool{false, true} {
					opt := Options{Measures: meas, FastR2: fast, Blis: fringeConfig(3)}
					opt.Blis.Kernel = k
					run := func(mirror, cut bool) *Result {
						res := &Result{SNPs: n, Cols: n, Samples: g.Samples, RowFreqs: p, ColFreqs: p}
						if !mirror {
							res.Cols, res.ColFreqs = b.SNPs, pb
						}
						hook := blis.TileEpilogue(newDenseEpilogue(res, opt, mirror).RowRun)
						if cut {
							hook = cutIntoTiles(hook, k.NR, 1)
						}
						var err error
						if mirror {
							err = blis.SyrkEpilogue(opt.blisCfg(), g, hook)
						} else {
							err = blis.GemmEpilogue(opt.blisCfg(), g, b, hook)
						}
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					for _, mirror := range []bool{true, false} {
						bitsEqualResults(t, run(mirror, false), run(mirror, true))
					}
					if fast {
						continue // the split sweep has no reciprocal path
					}
					splitOpt := opt
					splitOpt.Measures |= KeepCounts
					split, err := Matrix(g, splitOpt)
					if err != nil {
						t.Fatal(err)
					}
					bitsEqualResults(t, run(true, false), split)
				}
			}
		}
	}
}

// The same for the masked (four-count) epilogue, whose register tile is
// fixed at 2x2.
func TestMaskedEpilogueRunsMatchTilesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	mk := kernel.Masked2x2()
	for _, n := range []int{5, 67, 131} {
		g, mask := randomMaskedPair(rng, n, 77)
		withMonomorphic(g)
		if err := mask.ApplyTo(g); err != nil {
			t.Fatal(err)
		}
		b, maskB := randomMaskedPair(rng, n+9, 77)
		if err := maskB.ApplyTo(b); err != nil {
			t.Fatal(err)
		}
		for _, meas := range measureSets {
			opt := Options{Measures: meas, Blis: fringeConfig(3)}
			run := func(mirror, cut bool) *Result {
				res := &Result{SNPs: n, Cols: n, Samples: g.Samples}
				if !mirror {
					res.Cols = b.SNPs
				}
				hook := blis.TileEpilogue(newMaskedEpilogue(res, opt, mirror).RowRun)
				if cut {
					hook = cutIntoTiles(hook, mk.NR, 4)
				}
				var err error
				if mirror {
					err = blis.MaskedSyrkEpilogue(opt.blisCfg(), g, mask, hook)
				} else {
					err = blis.MaskedGemmEpilogue(opt.blisCfg(), g, b, mask, maskB, hook)
				}
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			for _, mirror := range []bool{true, false} {
				bitsEqualResults(t, run(mirror, false), run(mirror, true))
			}
		}
	}
}

// TestDestHintUnobservable: the destination hint is prefetched from and
// nothing else, so an epilogue that answers Dest and the same epilogue
// wrapped in blis.TileEpilogue — a bare func, which cannot answer — must
// produce the same bits. Matrix and Cross are compared with the driver
// calls they make, re-made with the wrapped hook, for every measure set
// (one measure answers, several and D′ alone decline). Stream's rows are
// compared with one unhinted GEMM over the whole matrix through the scan's
// own epilogue — a cell's value does not depend on how the scan cut the
// work — exact and fast, full, triangular, banded and row-windowed. The
// shapes have whole rows of full register tiles on every host, so where the
// assembly tile runs the hint is really followed.
func TestDestHintUnobservable(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 150
	g := withMonomorphic(randomMatrix(rng, n, 333))
	b := withMonomorphic(randomMatrix(rng, n+21, 333))
	p, pb := AlleleFrequencies(g), AlleleFrequencies(b)

	for _, meas := range measureSets {
		for _, fast := range []bool{false, true} {
			opt := Options{Measures: meas, FastR2: fast, Blis: blis.Config{Threads: 2}}
			hinted, err := Matrix(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			bare := &Result{SNPs: n, Cols: n, Samples: g.Samples, RowFreqs: p, ColFreqs: p}
			if err := blis.SyrkEpilogue(opt.blisCfg(), g, blis.TileEpilogue(newDenseEpilogue(bare, opt, true).RowRun)); err != nil {
				t.Fatal(err)
			}
			bitsEqualResults(t, hinted, bare)

			if hinted, err = Cross(g, b, opt); err != nil {
				t.Fatal(err)
			}
			bare = &Result{SNPs: n, Cols: b.SNPs, Samples: g.Samples, RowFreqs: p, ColFreqs: pb}
			if err := blis.GemmEpilogue(opt.blisCfg(), g, b, blis.TileEpilogue(newDenseEpilogue(bare, opt, false).RowRun)); err != nil {
				t.Fatal(err)
			}
			bitsEqualResults(t, hinted, bare)
		}
	}

	modes := map[string]StreamOptions{
		"full":       {StripeRows: 40},
		"triangular": {Triangular: true, StripeRows: 40},
		"banded":     {Triangular: true, Banded: true, Band: 37, StripeRows: 32},
		"row-window": {Triangular: true, StripeRows: 16, RowStart: 21, RowEnd: 131},
	}
	for name, opt := range modes {
		for _, exact := range []bool{false, true} {
			opt.Exact = exact
			bare := make([]float64, n*n)
			e := newStripeScan(opt, p, g.Samples).epilogue(bare, n, 0, 0)
			if err := blis.GemmEpilogue(opt.blisCfg(), g, g, blis.TileEpilogue(e.RowRun)); err != nil {
				t.Fatal(err)
			}
			rows := 0
			err := Stream(g, opt, func(i, j0 int, row []float64) {
				rows++
				bitsEqual(t, name, row, bare[i*n+j0:][:len(row)])
			})
			if err != nil {
				t.Fatal(err)
			}
			if lo, hi, _ := opt.rowWindow(n); rows != hi-lo {
				t.Fatalf("%s: %d rows visited, want %d", name, rows, hi-lo)
			}
		}
	}
}

// The dense epilogue answers Dest only when a run is one pass over one
// matrix, and then with the address RowRun writes first.
func TestDenseEpilogueDest(t *testing.T) {
	res := &Result{SNPs: 9, Cols: 11, Samples: 64, RowFreqs: make([]float64, 9), ColFreqs: make([]float64, 11)}
	for _, meas := range measureSets {
		e := newDenseEpilogue(res, Options{Measures: meas}, false)
		p, rowBytes := e.Dest(3, 4)
		var want *float64
		switch meas {
		case 0, MeasureR2:
			want = &res.R2[3*11+4]
		case MeasureD:
			want = &res.D[3*11+4]
		}
		if p != unsafe.Pointer(want) || (want != nil && rowBytes != 11*8) {
			t.Fatalf("measures %b: Dest = %p, %d bytes a row; want %p", meas, p, rowBytes, want)
		}
	}
}
