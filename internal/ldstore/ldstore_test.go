package ldstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/core"
)

func buildStore(t *testing.T, g *bitmat.Matrix, opt BuildOptions, so Options) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.ldts")
	if _, err := BuildFile(path, g, opt); err != nil {
		t.Fatalf("BuildFile: %v", err)
	}
	s, err := Open(path, so)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// dense computes the reference matrix for a statistic via the dense path.
func dense(t *testing.T, g *bitmat.Matrix, stat Stat) []float64 {
	t.Helper()
	res, err := core.Matrix(g, core.Options{Measures: stat.Measure()})
	if err != nil {
		t.Fatalf("core.Matrix: %v", err)
	}
	switch stat {
	case StatR2:
		return res.R2
	case StatD:
		return res.D
	default:
		return res.DPrime
	}
}

// TestStoreBitIdentical verifies the acceptance criterion driving the
// whole design: every value a store serves — via At, Cell, Pair, Region
// and Rect — must be bit-for-bit the value the dense core.Matrix path
// computes, for every statistic from the one store, across tile sizes
// that do and do not divide the SNP count, with counts 2 bytes wide and,
// at N = 65 536, 4.
func TestStoreBitIdentical(t *testing.T) {
	for _, g := range []*bitmat.Matrix{testMatrix(t, 75, 96, 3), testMatrix(t, 37, 65536, 3)} {
		n := g.SNPs
		want := map[Stat][]float64{}
		for _, stat := range []Stat{StatR2, StatD, StatDPrime} {
			want[stat] = dense(t, g, stat)
		}
		for _, nt := range []int{16, 25, 128} {
			s := buildStore(t, g, BuildOptions{TileSize: nt}, Options{})
			if s.SNPs() != n || s.Samples() != g.Samples || s.Stat() != StatR2 || s.Info().CountBytes != core.CountBytes(g.Samples) {
				t.Fatalf("N=%d nt=%d: header mismatch: %+v", g.Samples, nt, s.Info())
			}
			same := func(what string, got, ref float64) {
				t.Helper()
				if math.Float64bits(got) != math.Float64bits(ref) {
					t.Fatalf("N=%d nt=%d %s = %v, dense %v", g.Samples, nt, what, got, ref)
				}
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					at, err := s.At(i, j)
					d, r2, dp, perr := s.Pair(i, j)
					if err != nil || perr != nil {
						t.Fatalf("At/Pair(%d,%d): %v, %v", i, j, err, perr)
					}
					same(fmt.Sprintf("At(%d,%d)", i, j), at, want[StatR2][i*n+j])
					same(fmt.Sprintf("Pair(%d,%d).D", i, j), d, want[StatD][i*n+j])
					same(fmt.Sprintf("Pair(%d,%d).R2", i, j), r2, want[StatR2][i*n+j])
					same(fmt.Sprintf("Pair(%d,%d).DPrime", i, j), dp, want[StatDPrime][i*n+j])
					for stat, ref := range want {
						v, err := s.Cell(stat.Measure(), i, j)
						if err != nil {
							t.Fatalf("Cell(%v,%d,%d): %v", stat, i, j, err)
						}
						same(fmt.Sprintf("Cell(%v,%d,%d)", stat, i, j), v, ref[i*n+j])
					}
				}
			}
			start, end := 7, n-3
			reg, err := s.Region(start, end)
			if err != nil {
				t.Fatalf("Region: %v", err)
			}
			w := end - start
			for i := 0; i < w; i++ {
				for j := 0; j < w; j++ {
					same(fmt.Sprintf("Region[%d,%d]", i, j), reg[i*w+j], want[StatR2][(i+start)*n+(j+start)])
				}
			}
			for stat, ref := range want {
				for _, rc := range [][4]int{{start, end, start, end}, {20, n, 0, 30}, {3, 9, 5, n}} {
					got, err := s.Rect(stat.Measure(), rc[0], rc[1], rc[2], rc[3])
					if err != nil {
						t.Fatalf("Rect(%v, %v): %v", stat, rc, err)
					}
					w := rc[3] - rc[2]
					for i := rc[0]; i < rc[1]; i++ {
						for j := rc[2]; j < rc[3]; j++ {
							same(fmt.Sprintf("Rect(%v, %v)(%d,%d)", stat, rc, i, j), got[(i-rc[0])*w+j-rc[2]], ref[i*n+j])
						}
					}
				}
			}
		}
	}
}

// TestStoreTileMaxima: every index aux word is the greatest off-diagonal
// exact r² of its tile as core.Matrix computes it, −Inf for a tile with no
// off-diagonal pair — and for a store the parent format (LDTS version 1,
// f64 tiles) also wrote, the very bits it wrote there.
func TestStoreTileMaxima(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "v1.ldts"))
	if err != nil {
		t.Fatal(err)
	}
	// testdata/v1.ldts is the version-1 store of this matrix at tile size 8.
	g := testMatrix(t, 40, 64, 5)
	r2 := dense(t, g, StatR2)
	n := g.SNPs
	for _, nt := range []int{8, 7, 40} {
		s := buildStore(t, g, BuildOptions{TileSize: nt}, Options{})
		for id, e := range s.index {
			tile := s.tileOf(id)
			want := math.Inf(-1)
			for i := tile.Row0; i < tile.Row0+tile.Rows; i++ {
				for j := max(tile.Col0, i+1); j < tile.Col0+tile.Cols; j++ {
					want = max(want, r2[i*n+j])
				}
			}
			if e.Aux != math.Float64bits(want) {
				t.Fatalf("nt=%d tile (%d,%d): aux %016x, Matrix's maximum %016x", nt, tile.TI, tile.TJ, e.Aux, math.Float64bits(want))
			}
			if nt != 8 {
				continue
			}
			le := binary.LittleEndian
			old := v1[le.Uint64(v1[48:])+uint64(id)*24:]
			if got := le.Uint64(old[16:]); got != e.Aux {
				t.Fatalf("tile (%d,%d): aux %016x, the version-1 store wrote %016x", tile.TI, tile.TJ, e.Aux, got)
			}
		}
	}
}

func TestStoreFingerprint(t *testing.T) {
	g := testMatrix(t, 30, 40, 1)
	s := buildStore(t, g, BuildOptions{TileSize: 8}, Options{})
	if s.Fingerprint() != g.Fingerprint() {
		t.Fatalf("fingerprint %x, want %x", s.Fingerprint(), g.Fingerprint())
	}
	other := testMatrix(t, 30, 40, 2)
	if s.Fingerprint() == other.Fingerprint() {
		t.Fatal("distinct datasets share a fingerprint")
	}
}

func TestStoreTop(t *testing.T) {
	g := testMatrix(t, 90, 64, 7)
	n := g.SNPs
	want := dense(t, g, StatR2)
	type pair struct {
		i, j int
		v    float64
	}
	var all []pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			all = append(all, pair{i, j, want[i*n+j]})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].v != all[b].v {
			return all[a].v > all[b].v
		}
		if all[a].i != all[b].i {
			return all[a].i < all[b].i
		}
		return all[a].j < all[b].j
	})
	s := buildStore(t, g, BuildOptions{TileSize: 16}, Options{})
	for _, k := range []int{1, 10, 200, n * n} {
		got, err := s.Top(k)
		if err != nil {
			t.Fatalf("Top(%d): %v", k, err)
		}
		wantLen := min(k, len(all))
		if len(got) != wantLen {
			t.Fatalf("Top(%d) returned %d pairs, want %d", k, len(got), wantLen)
		}
		for r, p := range got {
			ref := all[r]
			if p.I != ref.i || p.J != ref.j || math.Float64bits(p.Value) != math.Float64bits(ref.v) {
				t.Fatalf("Top(%d)[%d] = (%d,%d,%v), want (%d,%d,%v)",
					k, r, p.I, p.J, p.Value, ref.i, ref.j, ref.v)
			}
		}
	}
	if _, err := s.Top(0); err == nil {
		t.Fatal("Top(0) succeeded")
	}
}

// TestStoreTopPrunes asserts the per-tile maxima actually skip tiles: on
// a dataset with many tiles, a small Top must read fewer tiles than
// exist.
func TestStoreTopPrunes(t *testing.T) {
	g := testMatrix(t, 200, 64, 11)
	s := buildStore(t, g, BuildOptions{TileSize: 16}, Options{CacheTiles: 1024})
	before := ReadStats()
	if _, err := s.Top(3); err != nil {
		t.Fatalf("Top: %v", err)
	}
	read := ReadStats().TilesRead - before.TilesRead
	if total := uint64(len(s.index)); read >= total {
		t.Fatalf("Top(3) read all %d tiles; maxOff pruning is not working", total)
	}
}

// TestStoreCacheCounters: a store checks each tile on its first touch and
// reads it in place after, so a first sweep over every tile is all misses,
// each a tile read, a repeat of it all hits, and nothing is ever evicted.
func TestStoreCacheCounters(t *testing.T) {
	g := testMatrix(t, 64, 32, 13)
	s := buildStore(t, g, BuildOptions{TileSize: 16}, Options{})
	tiles := uint64(len(s.index)) // 4 tile bands → 10 tiles, each visited once by the square
	before := ReadStats()
	if _, err := s.Region(0, 64); err != nil {
		t.Fatalf("Region: %v", err)
	}
	mid := ReadStats()
	if mid.CacheMisses-before.CacheMisses != tiles || mid.TilesRead-before.TilesRead != tiles || mid.CacheHits != before.CacheHits {
		t.Fatalf("first sweep of %d tiles: %+v → %+v", tiles, before, mid)
	}
	if _, err := s.Region(0, 64); err != nil {
		t.Fatalf("Region: %v", err)
	}
	after := ReadStats()
	if after.CacheHits-mid.CacheHits != tiles || after.CacheMisses != mid.CacheMisses || after.TilesRead != mid.TilesRead || after.BytesRead != mid.BytesRead {
		t.Fatalf("repeat sweep of %d tiles: %+v → %+v", tiles, mid, after)
	}
	if after.Evictions != before.Evictions {
		t.Fatalf("evictions moved: %+v → %+v", before, after)
	}
	if after.BytesServed <= before.BytesServed {
		t.Fatal("BytesServed did not advance")
	}
}

// TestBuildMemoryBound is the acceptance criterion that the builder's
// result storage is O(StripeRows × SNPs): at n=1536 the full float64
// matrix alone is n²×8 ≈ 18.9 MB, and the build must allocate less than
// n²×4 total — impossible if anything materializes the full matrix.
func TestBuildMemoryBound(t *testing.T) {
	if raceEnabled {
		t.Skip("TotalAlloc budgets are meaningless under the race detector")
	}
	n := 1536
	g := testMatrix(t, n, 64, 17)
	path := filepath.Join(t.TempDir(), "big.ldts")
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := BuildFile(path, g, BuildOptions{
		TileSize: 128,
		LD:       core.Options{Blis: blis.Config{Threads: 1}},
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("BuildFile: %v", err)
	}
	budget := int64(n) * int64(n) * 4
	if alloc := int64(after.TotalAlloc - before.TotalAlloc); alloc >= budget {
		t.Fatalf("build allocated %d bytes, budget %d (full matrix would be %d)",
			alloc, budget, int64(n)*int64(n)*8)
	}
	if st.PeakResultBytes >= budget {
		t.Fatalf("PeakResultBytes %d exceeds budget %d", st.PeakResultBytes, budget)
	}
	// And the file is still complete and readable.
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if s.SNPs() != n || s.Info().Tiles != st.Tiles {
		t.Fatalf("store mismatch: %+v vs %+v", s.Info(), st)
	}
}

func TestBuildErrors(t *testing.T) {
	g := testMatrix(t, 10, 16, 19)
	if _, err := BuildFile(filepath.Join(t.TempDir(), "x"), g, BuildOptions{TileSize: -1}); err == nil {
		t.Fatal("negative tile size accepted")
	}
	if _, err := BuildFile(filepath.Join(t.TempDir(), "x"), g, BuildOptions{TileSize: 1 << 20}); err == nil {
		t.Fatal("tile above maxTileBytes accepted")
	}
}

// TestBuildWriteFailure: a build refused up front must not leave an
// output file behind. A write that fails mid-build is
// TestBuildUncheckedWriteFault's (pipeline_test.go).
func TestBuildWriteFailure(t *testing.T) {
	g := testMatrix(t, 64, 32, 23)
	path := filepath.Join(t.TempDir(), "partial.ldts")
	if _, err := BuildFile(path, g, BuildOptions{TileSize: 1 << 20}); err == nil {
		t.Fatal("BuildFile succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("partial file left behind: stat err=%v", err)
	}
}

func TestStoreQueryErrors(t *testing.T) {
	g := testMatrix(t, 20, 16, 29)
	s := buildStore(t, g, BuildOptions{TileSize: 8}, Options{})
	if _, err := s.At(-1, 0); err == nil {
		t.Fatal("At(-1,0) succeeded")
	}
	if _, err := s.At(0, 20); err == nil {
		t.Fatal("At(0,n) succeeded")
	}
	if _, err := s.Region(5, 5); err == nil {
		t.Fatal("empty region succeeded")
	}
	if _, err := s.Region(0, 21); err == nil {
		t.Fatal("overlong region succeeded")
	}
}

// TestStoreCorruption flips payload bytes and checks the CRC catches it
// when the tile is read; a flipped allele-count table fails its CRC at
// open.
func TestStoreCorruption(t *testing.T) {
	g := testMatrix(t, 32, 24, 31)
	path := filepath.Join(t.TempDir(), "c.ldts")
	if _, err := BuildFile(path, g, BuildOptions{TileSize: 8}); err != nil {
		t.Fatalf("BuildFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	table := ldtsFormat.headerSize()
	if _, err := OpenReader(bytes.NewReader(data), int64(len(data)), Options{}); err != nil {
		t.Fatalf("intact store: %v", err)
	}
	data[table+5] ^= 0xFF
	if _, err := OpenReader(bytes.NewReader(data), int64(len(data)), Options{}); err == nil || !strings.Contains(err.Error(), "allele-count table checksum") {
		t.Fatalf("Open with a corrupt allele-count table: %v", err)
	}
	data[table+5] ^= 0xFF
	data[table+g.SNPs*core.CountBytes(g.Samples)+5] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open after payload corruption should defer to read time: %v", err)
	}
	defer s.Close()
	if _, err := s.At(0, 0); err == nil {
		t.Fatal("corrupted tile served without a checksum error")
	}
}

func TestStoreEmptyAndTiny(t *testing.T) {
	empty := bitmat.New(0, 8)
	s := buildStore(t, empty, BuildOptions{TileSize: 4}, Options{})
	if s.SNPs() != 0 || s.Info().Tiles != 0 {
		t.Fatalf("empty store: %+v", s.Info())
	}
	if _, err := s.At(0, 0); err == nil {
		t.Fatal("At on empty store succeeded")
	}

	one := testMatrix(t, 1, 8, 37)
	s1 := buildStore(t, one, BuildOptions{TileSize: 64}, Options{})
	v, err := s1.At(0, 0)
	if err != nil {
		t.Fatalf("At(0,0): %v", err)
	}
	want := dense(t, one, StatR2)
	if math.Float64bits(v) != math.Float64bits(want[0]) {
		t.Fatalf("1-SNP store At(0,0)=%v, want %v", v, want[0])
	}
}

// TestStoreConcurrentReads hammers one Store from many goroutines — the
// cache is the only shared mutable state, and the race tier runs this
// under -race.
func TestStoreConcurrentReads(t *testing.T) {
	g := testMatrix(t, 96, 48, 43)
	want := dense(t, g, StatR2)
	s := buildStore(t, g, BuildOptions{TileSize: 16}, Options{CacheTiles: 3})
	n := g.SNPs
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < 40; q++ {
				i, j := (w*13+q*7)%n, (w*29+q*3)%n
				v, err := s.At(i, j)
				if err != nil {
					errs <- err
					return
				}
				if math.Float64bits(v) != math.Float64bits(want[i*n+j]) {
					errs <- fmt.Errorf("concurrent At(%d,%d) = %v, want %v", i, j, v, want[i*n+j])
					return
				}
				if q%10 == 0 {
					if _, err := s.Region(min(i, j), min(i, j)+16); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEncodeByteOrder: the encoder's byte-by-byte path, which a big-endian
// host takes because a count in its memory is not its LDTS bytes, writes
// the same file as the little-endian path that hands over each tile's own
// memory — at both count widths, and with tiles that do not divide the SNP
// count.
func TestEncodeByteOrder(t *testing.T) {
	restore := hostLittleEndian
	defer func() { hostLittleEndian = restore }()
	for _, g := range []*bitmat.Matrix{testMatrix(t, 75, 96, 5), testMatrix(t, 37, 65536, 5)} {
		var files [2][]byte
		for k, little := range []bool{true, false} {
			hostLittleEndian = little
			path := filepath.Join(t.TempDir(), "order.ldts")
			if _, err := BuildFile(path, g, BuildOptions{TileSize: 16}); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			files[k] = b
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Fatalf("N=%d: the byte-by-byte encoder wrote a different store", g.Samples)
		}
	}
}
