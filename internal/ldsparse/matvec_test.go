package ldsparse

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"ldgemm/internal/popsim"
)

// keep is the store's pruning rule as the oracles apply it: an entry
// survives iff |v| ≥ τ.
func keep(v, tau float64) bool {
	return math.Abs(v) >= tau
}

// oracleMatVec is the serial reference the parallel operator must match
// bit for bit: for each output row, fold contributions in ascending
// source order over the cells the store holds (in-band, |v| ≥ τ).
func oracleMatVec(dense []float64, n int, bo BuildOptions, x []float64) []float64 {
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := dense[i*n+j]; inBand(bo, i, j) && keep(v, bo.Threshold) {
				y[i] += v * x[j]
			}
		}
	}
	return y
}

func testVector(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(3*i+1)) * float64(i%7+1)
	}
	return x
}

// foldVector is testVector with the entries a fold could mishandle
// spliced in: both zeros, the smallest denormal and a value near the top
// of the range (r² ≤ 1, so no sum overflows).
func foldVector(n int, big float64) []float64 {
	x := testVector(n)
	for k, v := range []float64{math.Copysign(0, -1), 0, 5e-324, big, -big} {
		if at := k * 3; at < n {
			x[at] = v
		}
	}
	return x
}

func equalBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// foldCase is one store of the bit-identity table, opened twice: resident
// (the rows laid out at open) and with the budget forced to 0 (the same
// assembler run per tile band inside each call).
type foldCase struct {
	name  string
	n     int
	bo    BuildOptions
	dense []float64
	modes map[string]*Store
}

// foldCases builds the table: n off and on tile multiples × two tile sizes
// × unbanded / diagonal-only / narrow / full-width bands × τ ∈ {0, 0.1},
// plus a store with every entry pruned.
func foldCases(t *testing.T) []foldCase {
	var cases []foldCase
	for _, n := range []int{1, 5, 67, 131, 300} {
		g := testMatrix(t, n, 48, int64(n))
		dense := denseRef(t, g, StatR2)
		opts := []BuildOptions{{TileSize: 32, Threshold: 1.5}} // r² ≤ 1: all pruned
		for _, nt := range []int{32, 64} {
			for _, tau := range []float64{0, 0.1} {
				opts = append(opts, BuildOptions{TileSize: nt, Threshold: tau})
				for _, w := range []int{0, 7, n - 1} {
					opts = append(opts, BuildOptions{TileSize: nt, Threshold: tau, Banded: true, Band: w})
				}
			}
		}
		for _, bo := range opts {
			path, resident := buildStore(t, g, bo)
			restore := SetResidentBudgetForTest(0)
			lazy, err := Open(path, Options{})
			restore()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { lazy.Close() })
			if !resident.Info().Resident || lazy.Info().Resident {
				t.Fatalf("residency: default budget %+v, budget 0 %+v", resident.Info(), lazy.Info())
			}
			cases = append(cases, foldCase{
				name: fmt.Sprintf("n=%d/nt=%d/banded=%v/W=%d/tau=%v", n, bo.TileSize, bo.Banded, bo.Band, bo.Threshold),
				n:    n, bo: bo, dense: dense,
				modes: map[string]*Store{"resident": resident, "budget0": lazy},
			})
		}
	}
	return cases
}

// TestMatVecMatchesOracle: over the whole table, MatVec and Score equal
// the serial ascending-j fold to the exact float64 bits in both modes —
// so the two modes equal each other — and repeat identically.
func TestMatVecMatchesOracle(t *testing.T) {
	for _, c := range foldCases(t) {
		x, z := foldVector(c.n, 1e300), foldVector(c.n, 1e150)
		zz := make([]float64, c.n)
		for i, v := range z {
			zz[i] = v * v
		}
		wantY, wantS := oracleMatVec(c.dense, c.n, c.bo, x), oracleMatVec(c.dense, c.n, c.bo, zz)
		for mode, s := range c.modes {
			for rep := 0; rep < 2; rep++ {
				y, err := s.MatVec(x)
				if err != nil {
					t.Fatalf("%s %s: %v", c.name, mode, err)
				}
				if i := equalBits(y, wantY); i >= 0 {
					t.Fatalf("%s %s rep %d: y[%d] = %v, oracle %v", c.name, mode, rep, i, y[i], wantY[i])
				}
			}
			sc, err := s.Score(z)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, mode, err)
			}
			if i := equalBits(sc, wantS); i >= 0 {
				t.Fatalf("%s %s: score[%d] = %v, oracle %v", c.name, mode, i, sc[i], wantS[i])
			}
		}
	}
}

// TestMatVecRangeStrips: shard-style row strips concatenate to exactly
// the full MatVec — the cluster scatter-gather identity — for every
// two-way split of the small stores, splits around the tile seams of the
// large ones, and a many-strip split, in both modes.
func TestMatVecRangeStrips(t *testing.T) {
	for _, c := range foldCases(t) {
		n, nt := c.n, c.bo.TileSize
		x := foldVector(n, 1e300)
		want := oracleMatVec(c.dense, n, c.bo, x)
		var splits [][]int
		for k := 1; k < n; k++ {
			if n <= 67 || k <= 1 || k >= n-1 || k == n/2 || (k+1)%nt <= 2 {
				splits = append(splits, []int{0, k, n})
			}
		}
		many := []int{0}
		for k := 1; k < n; k += 1 + k%(nt-3) {
			many = append(many, k)
		}
		splits = append(splits, append(many, n))
		for mode, s := range c.modes {
			for _, strips := range splits {
				var got []float64
				for k := 0; k+1 < len(strips); k++ {
					part, err := s.MatVecRange(x, strips[k], strips[k+1])
					if err != nil {
						t.Fatalf("%s %s strip [%d,%d): %v", c.name, mode, strips[k], strips[k+1], err)
					}
					got = append(got, part...)
				}
				if i := equalBits(got, want); i >= 0 {
					t.Fatalf("%s %s strips %v: row %d = %v, oracle %v", c.name, mode, strips, i, got[i], want[i])
				}
			}
		}
	}
}

// TestWarmFoldCounters: a resident store's operator call reads no tile
// and allocates its output and nothing per row; EntriesVisited keeps its
// meaning — nnz for a full matvec, and strips' counts sum to it — in
// both modes.
func TestWarmFoldCounters(t *testing.T) {
	g := testMatrix(t, 300, 48, 7)
	path, s := buildStore(t, g, BuildOptions{TileSize: 32, Threshold: 0.05, Banded: true, Band: 90})
	defer SetResidentBudgetForTest(0)()
	lazy, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	x := testVector(300)
	for mode, st := range map[string]*Store{"resident": s, "budget0": lazy} {
		before := ReadStats()
		if _, err := st.MatVec(x); err != nil {
			t.Fatal(err)
		}
		mid := ReadStats()
		for _, r := range [][2]int{{0, 1}, {1, 77}, {77, 256}, {256, 300}} {
			if _, err := st.MatVecRange(x, r[0], r[1]); err != nil {
				t.Fatal(err)
			}
		}
		after := ReadStats()
		if full, strips := mid.EntriesVisited-before.EntriesVisited, after.EntriesVisited-mid.EntriesVisited; full != uint64(s.NNZ()) || strips != full {
			t.Fatalf("%s: visited %d over a full matvec, %d over its strips, nnz %d", mode, full, strips, s.NNZ())
		}
		if read := after.TilesRead - before.TilesRead; (mode == "resident") != (read == 0) {
			t.Fatalf("%s: %d tiles read by warm calls", mode, read)
		}
	}
	if cells := len(s.rows.col); cells >= foldGrain {
		t.Fatalf("store of %d cells would fold on several goroutines; shrink it", cells)
	}
	if allocs := testing.AllocsPerRun(50, func() { s.MatVecRange(x, 3, 290) }); allocs > 2 {
		t.Fatalf("warm resident MatVecRange allocates %v times, want its output only", allocs)
	}
}

// TestParallelFold: a resident store above foldGrain folds its rows on
// several goroutines and still equals the oracle bit for bit.
func TestParallelFold(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 420
	g := testMatrix(t, n, 48, 11)
	bo := BuildOptions{TileSize: 64}
	_, s := buildStore(t, g, bo)
	if cells := len(s.rows.col); cells < 2*foldGrain {
		t.Fatalf("store of %d cells folds inline; grow it", cells)
	}
	x := foldVector(n, 1e300)
	want := oracleMatVec(denseRef(t, g, StatR2), n, bo, x)
	for _, r := range [][2]int{{0, n}, {5, n - 9}} {
		y, err := s.MatVecRange(x, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if i := equalBits(y, want[r[0]:r[1]]); i >= 0 {
			t.Fatalf("rows [%d,%d): y[%d] = %v, oracle %v", r[0], r[1], i, y[i], want[r[0]+i])
		}
	}
}

// TestSplitRows: the fan-out above foldGrain covers every row exactly
// once and hands back the first error.
func TestSplitRows(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 8} {
		hits := make([]int32, 101)
		err := split(7, 101, parts, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				hits[i]++
			}
			if lo == 7 {
				return fmt.Errorf("first part")
			}
			return nil
		})
		if err == nil || err.Error() != "first part" {
			t.Fatalf("%d parts: error %v", parts, err)
		}
		for i, h := range hits {
			if want := int32(min(1, max(0, i-6))); h != want {
				t.Fatalf("%d parts: row %d visited %d times", parts, i, h)
			}
		}
	}
}

// TestEmptyTileLookup: a pair in a tile with no surviving entry is
// answered from the index — no read, no LRU lookup, no eviction — and a
// tile cached before stays cached.
func TestEmptyTileLookup(t *testing.T) {
	g := testMatrix(t, 200, 48, 9)
	path, _ := buildStore(t, g, BuildOptions{TileSize: 16, Banded: true, Band: 10})
	s, err := Open(path, Options{CacheTiles: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok, err := s.Lookup(3, 5); err != nil || !ok {
		t.Fatalf("in-band Lookup: present=%v err=%v", ok, err)
	}
	before := ReadStats()
	for k := 0; k < 1000; k++ {
		i := k % 100
		if v, ok, err := s.Lookup(i, i+40+k%60); err != nil || ok || v != 0 {
			t.Fatalf("out-of-band Lookup(%d,%d) = %v %v %v", i, i+40+k%60, v, ok, err)
		}
	}
	after := ReadStats()
	if after.TilesRead != before.TilesRead || after.CacheMisses != before.CacheMisses || after.Evictions != before.Evictions || after.CacheHits != before.CacheHits {
		t.Fatalf("empty-tile lookups moved the read path: %+v → %+v", before, after)
	}
	if _, ok, err := s.Lookup(3, 5); err != nil || !ok {
		t.Fatalf("in-band Lookup: present=%v err=%v", ok, err)
	}
	if last := ReadStats(); last.CacheHits != after.CacheHits+1 || last.TilesRead != after.TilesRead {
		t.Fatalf("the cached tile was displaced: %+v → %+v", after, last)
	}
}

// TestScoreMatchesSquaredMatVec: Score(z) is exactly MatVec(z∘z).
func TestScoreMatchesSquaredMatVec(t *testing.T) {
	g := testMatrix(t, 45, 36, 29)
	n := g.SNPs
	_, s := buildStore(t, g, BuildOptions{TileSize: 16, Threshold: 0.05})
	z := testVector(n)
	x := make([]float64, n)
	for i, v := range z {
		x[i] = v * v
	}
	want, err := s.MatVec(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Score(z)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("Score[%d] = %v, MatVec(z²) %v", i, got[i], want[i])
		}
	}
	if part, err := s.ScoreRange(z, 10, 20); err != nil {
		t.Fatal(err)
	} else {
		for i, v := range part {
			if math.Float64bits(v) != math.Float64bits(want[10+i]) {
				t.Fatalf("ScoreRange[%d] = %v, want %v", 10+i, v, want[10+i])
			}
		}
	}
}

// TestMatVecValidation: wrong vector lengths and degenerate ranges are
// rejected.
func TestMatVecValidation(t *testing.T) {
	g := testMatrix(t, 30, 24, 31)
	_, s := buildStore(t, g, BuildOptions{TileSize: 16})
	if _, err := s.MatVec(make([]float64, 29)); err == nil {
		t.Fatal("short vector accepted")
	}
	x := make([]float64, 30)
	for _, r := range [][2]int{{-1, 10}, {5, 5}, {10, 5}, {0, 31}} {
		if _, err := s.MatVecRange(x, r[0], r[1]); err == nil {
			t.Fatalf("range [%d,%d) accepted", r[0], r[1])
		}
	}
	if _, err := s.ScoreRange(make([]float64, 3), 0, 30); err == nil {
		t.Fatal("short score vector accepted")
	}
}

// BenchmarkMatVec is the benchmark ledger's serve_store shape: 4096 SNPs,
// banded W = 512, τ = 0.1 over a 16-founder mosaic. resident folds the
// layout kept since open; budget0 lays every tile band out per call.
func BenchmarkMatVec(b *testing.B) {
	g, err := popsim.Mosaic(4096, 2048, popsim.MosaicConfig{Seed: 1, Founders: 16, SwitchRate: 0.005})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.ldss")
	if _, err := BuildFile(path, g, BuildOptions{TileSize: 128, Threshold: 0.1, Banded: true, Band: 512}); err != nil {
		b.Fatal(err)
	}
	x := testVector(g.SNPs)
	for _, mode := range []struct {
		name   string
		budget int64
	}{{"resident", residentBudget}, {"budget0", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			defer SetResidentBudgetForTest(mode.budget)()
			s, err := Open(path, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			for b.Loop() {
				if _, err := s.MatVec(x); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.NNZ())*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
		})
	}
}
