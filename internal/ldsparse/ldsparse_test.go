package ldsparse

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/core"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/popsim"
)

func testMatrix(t *testing.T, snps, samples int, seed int64) *bitmat.Matrix {
	t.Helper()
	g, err := popsim.Mosaic(snps, samples, popsim.MosaicConfig{Seed: seed})
	if err != nil {
		t.Fatalf("popsim.Mosaic: %v", err)
	}
	return g
}

// denseRef materializes the full symmetric statistic matrix through the
// same Exact triangular scan the builder rides, so comparisons against
// the store can demand bit equality, not tolerance.
func denseRef(t *testing.T, g *bitmat.Matrix, stat Stat) []float64 {
	t.Helper()
	n := g.SNPs
	out := make([]float64, n*n)
	opt := core.StreamOptions{Triangular: true, Exact: true, StripeRows: 32}
	opt.Measures = stat.Measure()
	err := core.Stream(g, opt, func(i, j0 int, row []float64) {
		for k, v := range row {
			out[i*n+j0+k] = v
			out[(j0+k)*n+i] = v
		}
	})
	if err != nil {
		t.Fatalf("dense reference scan: %v", err)
	}
	return out
}

func buildStore(t *testing.T, g *bitmat.Matrix, bo BuildOptions) (string, *Store) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "r.ldss")
	if _, err := BuildFile(path, g, bo); err != nil {
		t.Fatalf("BuildFile: %v", err)
	}
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return path, s
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// inBand reports whether the pair (i, j) was computed by a build with
// the given band options.
func inBand(bo BuildOptions, i, j int) bool {
	if !bo.Banded {
		return true
	}
	return max(i-j, j-i) <= bo.Band
}

// checkAgainstDense asserts the store holds exactly the in-band,
// threshold-surviving cells of the dense reference, bit for bit.
func checkAgainstDense(t *testing.T, s *Store, dense []float64, bo BuildOptions) {
	t.Helper()
	n := s.SNPs()
	var nnz int64
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			want := dense[i*n+j]
			wantKept := inBand(bo, i, j) && keep(want, bo.Threshold)
			v, ok, err := s.Lookup(i, j)
			if err != nil {
				t.Fatalf("Lookup(%d,%d): %v", i, j, err)
			}
			if ok != wantKept {
				t.Fatalf("Lookup(%d,%d) present=%v, want %v (|v|=%v τ=%v)", i, j, ok, wantKept, math.Abs(want), bo.Threshold)
			}
			if ok {
				nnz++
				if math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("Lookup(%d,%d) = %v, dense %v", i, j, v, want)
				}
				// Symmetry: argument order must not matter.
				if sym, _, _ := s.Lookup(j, i); math.Float64bits(sym) != math.Float64bits(v) {
					t.Fatalf("Lookup(%d,%d) = %v != Lookup(%d,%d) = %v", j, i, sym, i, j, v)
				}
			}
		}
	}
	if s.NNZ() != nnz {
		t.Fatalf("header nnz %d, counted %d surviving cells", s.NNZ(), nnz)
	}
}

// TestBuildMatchesDense: a τ=0 build keeps every upper-triangle cell,
// bit-identical to the Exact dense scan, for every statistic.
func TestBuildMatchesDense(t *testing.T) {
	g := testMatrix(t, 83, 64, 11) // prime SNP count → ragged edge tiles
	for _, stat := range []Stat{StatR2, StatD, StatDPrime} {
		bo := BuildOptions{TileSize: 16, Stat: stat}
		dense := denseRef(t, g, stat)
		_, s := buildStore(t, g, bo)
		if s.Stat() != stat || s.Threshold() != 0 || s.Banded() {
			t.Fatalf("stat=%v: header %v/%v/%v", stat, s.Stat(), s.Threshold(), s.Banded())
		}
		checkAgainstDense(t, s, dense, bo)
		n := int64(s.SNPs())
		if want := n * (n + 1) / 2; s.NNZ() != want {
			t.Fatalf("stat=%v: τ=0 kept %d of %d cells", stat, s.NNZ(), want)
		}
	}
}

// TestThresholdPruning: τ set to a magnitude that actually occurs in the
// data — entries tied exactly at the threshold are kept, everything
// below is pruned, and two builds produce identical bytes.
func TestThresholdPruning(t *testing.T) {
	g := testMatrix(t, 60, 48, 7)
	dense := denseRef(t, g, StatR2)
	n := g.SNPs

	// Pick τ as an off-diagonal magnitude present in the matrix so the
	// |v| ≥ τ tie case is genuinely exercised, not vacuous.
	var mags []float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if v := math.Abs(dense[i*n+j]); v > 0 {
				mags = append(mags, v)
			}
		}
	}
	sort.Float64s(mags)
	tau := mags[len(mags)*7/10]

	bo := BuildOptions{TileSize: 16, Threshold: tau}
	path, s := buildStore(t, g, bo)
	checkAgainstDense(t, s, dense, bo)
	if s.NNZ() == 0 || s.NNZ() == int64(n)*int64(n+1)/2 {
		t.Fatalf("τ=%v pruned nothing or everything (nnz=%d)", tau, s.NNZ())
	}
	// The tie itself: at least one stored entry sits exactly at τ.
	tied := false
	for i := 0; i < n && !tied; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(dense[i*n+j]) == tau {
				if _, ok, _ := s.Lookup(i, j); !ok {
					t.Fatalf("entry (%d,%d) tied at τ=%v was pruned", i, j, tau)
				}
				tied = true
				break
			}
		}
	}
	if !tied {
		t.Fatalf("no entry tied at τ=%v — threshold selection broken", tau)
	}

	// Determinism: a second build writes byte-identical output.
	again := filepath.Join(t.TempDir(), "again.ldss")
	if _, err := BuildFile(again, g, bo); err != nil {
		t.Fatal(err)
	}
	if string(mustRead(t, path)) != string(mustRead(t, again)) {
		t.Fatal("two builds with identical options differ byte-wise")
	}
}

// TestEmptyStore: a τ above every magnitude prunes everything; the empty
// store still round-trips — opens, reports itself, serves lookups and
// matvecs (all zero).
func TestEmptyStore(t *testing.T) {
	g := testMatrix(t, 40, 32, 3)
	bo := BuildOptions{TileSize: 16, Threshold: 1.5} // r² ≤ 1 < 1.5
	_, s := buildStore(t, g, bo)
	if s.NNZ() != 0 {
		t.Fatalf("τ=1.5 kept %d entries", s.NNZ())
	}
	info := s.Info()
	if info.EmptyTiles != info.Tiles || info.Density != 0 || info.TileBytes != 0 {
		t.Fatalf("empty store info %+v", info)
	}
	if v, ok, err := s.Lookup(3, 17); err != nil || ok || v != 0 {
		t.Fatalf("Lookup on empty store: %v %v %v", v, ok, err)
	}
	x := make([]float64, s.SNPs())
	for i := range x {
		x[i] = float64(i + 1)
	}
	y, err := s.MatVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range y {
		if v != 0 {
			t.Fatalf("empty-store MatVec y[%d] = %v", i, v)
		}
	}
}

// TestBandedStoreWideBandIdentical: a banded build with W ≥ n−1 holds
// exactly the unbanded store's entries — same nnz, same values bit for
// bit — and the files differ only in the header's flag and band fields.
func TestBandedStoreWideBandIdentical(t *testing.T) {
	g := testMatrix(t, 57, 40, 13)
	base := BuildOptions{TileSize: 16, Threshold: 0.05}
	densePath, dense := buildStore(t, g, base)

	wide := base
	wide.Banded, wide.Band = true, g.SNPs+5
	bandPath, banded := buildStore(t, g, wide)

	if banded.NNZ() != dense.NNZ() {
		t.Fatalf("wide band kept %d entries, dense %d", banded.NNZ(), dense.NNZ())
	}
	if !banded.Banded() || banded.Band() != g.SNPs+5 {
		t.Fatalf("banded header lost its band: %v %d", banded.Banded(), banded.Band())
	}
	db, bb := mustRead(t, densePath), mustRead(t, bandPath)
	if len(db) != len(bb) {
		t.Fatalf("file sizes differ: %d vs %d", len(db), len(bb))
	}
	if string(db[format.HeaderSize():]) != string(bb[format.HeaderSize():]) {
		t.Fatal("tile payloads differ between wide-banded and unbanded builds")
	}
	ref := denseRef(t, g, StatR2)
	checkAgainstDense(t, banded, ref, wide)
}

// TestBandedStoreDiagonalOnly: W = 0 keeps only self-pairs.
func TestBandedStoreDiagonalOnly(t *testing.T) {
	g := testMatrix(t, 50, 36, 21)
	bo := BuildOptions{TileSize: 16, Banded: true, Band: 0}
	_, s := buildStore(t, g, bo)
	checkAgainstDense(t, s, denseRef(t, g, StatR2), bo)
	if s.NNZ() > int64(g.SNPs) {
		t.Fatalf("W=0 stored %d entries for %d SNPs", s.NNZ(), g.SNPs)
	}
}

// TestBandedStoreNarrow: an intermediate band prunes by position and
// threshold together.
func TestBandedStoreNarrow(t *testing.T) {
	g := testMatrix(t, 71, 44, 17)
	bo := BuildOptions{TileSize: 16, Banded: true, Band: 9, Threshold: 0.02}
	_, s := buildStore(t, g, bo)
	checkAgainstDense(t, s, denseRef(t, g, StatR2), bo)
}

// TestTierRatios holds the two things the sparse tier exists for, at a
// shape large enough that container overheads do not drown them
// (2048 SNPs × 1024 samples, τ = 0.2, W = n/16, tile 128): the pruned
// store is at most a tenth of the dense store's bytes, and the banded
// build never schedules at least half of the triangle's cells.
func TestTierRatios(t *testing.T) {
	const n, tile, tau = 2048, 128, 0.2
	g := testMatrix(t, n, 1024, 5)
	dir := t.TempDir()
	dense, err := ldstore.BuildFile(filepath.Join(dir, "g.ldts"), g, ldstore.BuildOptions{TileSize: tile})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := BuildFile(filepath.Join(dir, "g.ldss"), g, BuildOptions{TileSize: tile, Threshold: tau})
	if err != nil {
		t.Fatal(err)
	}
	if dense.FileBytes < 10*pruned.FileBytes {
		t.Fatalf("dense store %d bytes, pruned %d: ratio %.1f, want ≥ 10",
			dense.FileBytes, pruned.FileBytes, float64(dense.FileBytes)/float64(pruned.FileBytes))
	}

	before := blis.ReadStats().BandCellsSkipped
	bo := BuildOptions{TileSize: tile, Threshold: tau, Banded: true, Band: n / 16}
	if _, err := BuildFile(filepath.Join(dir, "g.banded.ldss"), g, bo); err != nil {
		t.Fatal(err)
	}
	skipped := blis.ReadStats().BandCellsSkipped - before
	if triangle := uint64(n) * (n + 1) / 2; 2*skipped < triangle {
		t.Fatalf("banded build skipped %d of the triangle's %d cells, want at least half", skipped, triangle)
	}
}

// TestBuildValidation: malformed options must refuse before any I/O.
func TestBuildValidation(t *testing.T) {
	g := testMatrix(t, 10, 16, 1)
	dir := t.TempDir()
	for name, bo := range map[string]BuildOptions{
		"negative threshold":  {Threshold: -0.5},
		"NaN threshold":       {Threshold: math.NaN()},
		"negative band":       {Banded: true, Band: -2},
		"band without banded": {Band: 5},
		"huge tile":           {TileSize: 1 << 20},
		"bad stat":            {Stat: Stat(9)},
	} {
		path := filepath.Join(dir, "x.ldss")
		if _, err := BuildFile(path, g, bo); err == nil {
			t.Fatalf("%s accepted", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s left a file behind", name)
		}
	}
}

// TestInfoAndStats: Info's derived fields are consistent and the package
// counters move.
func TestInfoAndStats(t *testing.T) {
	g := testMatrix(t, 48, 32, 5)
	_, s := buildStore(t, g, BuildOptions{TileSize: 16, Threshold: 0.1})
	info := s.Info()
	// DenseBytes is the tile payload of the complete store of this shape
	// and N: six 16 × 16 tiles of 2-byte counts.
	complete, err := ldstore.BuildFile(filepath.Join(t.TempDir(), "g.ldts"), g, ldstore.BuildOptions{TileSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if info.DenseBytes != complete.TileBytes || info.DenseBytes != 6*16*16*2 {
		t.Fatalf("dense bytes %d, the complete store's tiles %d", info.DenseBytes, complete.TileBytes)
	}
	if info.NNZ != s.NNZ() || info.Tiles != 6 {
		t.Fatalf("info %+v", info)
	}
	before := ReadStats()
	if _, _, err := s.Lookup(0, 47); err != nil {
		t.Fatal(err)
	}
	if after := ReadStats(); after.BytesServed <= before.BytesServed {
		t.Fatal("Lookup did not move BytesServed")
	}
}
