package ldstore

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ldgemm/internal/bufpool"
	"ldgemm/internal/core"
	"ldgemm/internal/popsim"
)

// A store reads its file in place: mapped where the host maps files, else
// read into one buffer, and each tile checked on its first touch. These
// tests hold the read side to that: a rebuild into the path of an open
// store, a damaged tile, first touches racing each other, and queries
// racing Close. fault_unix_test.go truncates a mapped store under its
// readers.

// sameRegion fails unless s's whole r² region is want, bit for bit.
func sameRegion(t *testing.T, what string, s *Store, want []float64) {
	t.Helper()
	got, err := s.Region(0, s.SNPs())
	if err != nil {
		t.Fatalf("%s: Region: %v", what, err)
	}
	for k, v := range got {
		if math.Float64bits(v) != math.Float64bits(want[k]) {
			t.Fatalf("%s: cell %d = %v, want %v", what, k, v, want[k])
		}
	}
}

// TestRebuildKeepsOpenStore: a fresh build removes the file at its path
// before it writes, so a store open on the old file keeps answering the
// old cohort bit for bit, and a new Open reads the new one.
func TestRebuildKeepsOpenStore(t *testing.T) {
	old, next := testMatrix(t, 70, 48, 21), testMatrix(t, 70, 48, 22)
	path := filepath.Join(t.TempDir(), "rebuilt.ldts")
	if _, err := BuildFile(path, old, BuildOptions{TileSize: 16}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.At(0, 1); err != nil { // one tile checked before the rebuild, the rest after
		t.Fatal(err)
	}
	// A checkpointed rebuild leaves nothing of an earlier build's sidecars.
	if _, err := BuildFileFromSource(path, ldbmSource(t, next, false), SourceBuildOptions{
		BuildOptions: BuildOptions{TileSize: 16}, IOPanelSNPs: 32, Checkpoint: true,
	}); err != nil {
		t.Fatal(err)
	}
	sameRegion(t, "open store", s, dense(t, old, StatR2))
	fresh, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	sameRegion(t, "new Open", fresh, dense(t, next, StatR2))
	if fresh.Fingerprint() == s.Fingerprint() {
		t.Fatal("the two cohorts share a fingerprint")
	}
}

// TestFlippedPayloadByte: a tile whose payload has one byte flipped fails
// its check on the first read and again on the second (a failed check sets
// no bit), while every other tile is still served bit for bit.
func TestFlippedPayloadByte(t *testing.T) {
	g := testMatrix(t, 64, 40, 23)
	path := filepath.Join(t.TempDir(), "flipped.ldts")
	if _, err := BuildFile(path, g, BuildOptions{TileSize: 16}); err != nil {
		t.Fatal(err)
	}
	probe, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := probe.entry(1, 2) // rows [16, 32) × columns [32, 48)
	probe.Close()
	b := mustRead(t, path)
	b[e.Offset+7] ^= 0x04
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for read := 1; read <= 2; read++ {
		if _, err := s.At(20, 40); err == nil {
			t.Fatalf("read %d of the damaged tile served", read)
		}
		if _, err := s.Rect(core.MeasureD, 30, 34, 40, 44); err == nil {
			t.Fatalf("read %d: a rectangle over the damaged tile served", read)
		}
	}
	want := dense(t, g, StatR2)
	n := g.SNPs
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if lo, hi := min(i, j), max(i, j); lo/16 == 1 && hi/16 == 2 {
				continue
			}
			v, err := s.At(i, j)
			if err != nil || math.Float64bits(v) != math.Float64bits(want[i*n+j]) {
				t.Fatalf("At(%d,%d) = %v, %v; want %v", i, j, v, err, want[i*n+j])
			}
		}
	}
}

// TestFirstTouchConcurrent: eight goroutines make the first touch of the
// same tiles at once (run under -race by make verify-race). Each gets the
// dense path's bits, every tile ends up checked, and every first touch
// that checked a tile counted one tile read.
func TestFirstTouchConcurrent(t *testing.T) {
	g := testMatrix(t, 96, 40, 29)
	want := dense(t, g, StatR2)
	s := buildStore(t, g, BuildOptions{TileSize: 16}, Options{})
	before := ReadStats()
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := s.Region(0, g.SNPs)
			if err != nil {
				errs <- err
				return
			}
			for k, v := range got {
				if math.Float64bits(v) != math.Float64bits(want[k]) {
					errs <- errors.New("a region read at first touch differs from the dense path")
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for id := range s.index {
		if s.verified[id/64].Load()&(1<<(id%64)) == 0 {
			t.Fatalf("tile %d unchecked after every goroutine read it", id)
		}
	}
	after := ReadStats()
	tiles := uint64(len(s.index))
	if read, misses := after.TilesRead-before.TilesRead, after.CacheMisses-before.CacheMisses; read != misses || read < tiles {
		t.Fatalf("%d tiles read over %d first touches of %d tiles", read, misses, tiles)
	}
	if lookups := after.CacheHits - before.CacheHits + after.CacheMisses - before.CacheMisses; lookups != 8*tiles {
		t.Fatalf("%d tile touches, want %d", lookups, 8*tiles)
	}
}

// TestQueryRacingClose: queries running while the store closes either
// finish with the right bits or fail with an error — never a crash or a
// read of released memory — and every query after Close fails, on a
// mapped store and on one read into memory alike.
func TestQueryRacingClose(t *testing.T) {
	g := testMatrix(t, 80, 40, 31)
	want := dense(t, g, StatR2)
	path := filepath.Join(t.TempDir(), "closing.ldts")
	if _, err := BuildFile(path, g, BuildOptions{TileSize: 16}); err != nil {
		t.Fatal(err)
	}
	open := map[string]func() (*Store, error){
		"mapped": func() (*Store, error) { return Open(path, Options{}) },
		"buffer": func() (*Store, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			fi, err := f.Stat()
			if err != nil {
				return nil, err
			}
			return OpenReader(f, fi.Size(), Options{})
		},
	}
	for name, opener := range open {
		s, err := opener()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		started := make(chan struct{}, 4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for q := 0; ; q++ {
					lo := (w*7 + q*3) % (g.SNPs - 24)
					got, err := s.Region(lo, lo+24)
					if q == 0 {
						started <- struct{}{}
					}
					if err != nil {
						return // closed under it, or before it began
					}
					for r := 0; r < 24; r++ {
						for c := 0; c < 24; c++ {
							if v := got[r*24+c]; math.Float64bits(v) != math.Float64bits(want[(lo+r)*g.SNPs+lo+c]) {
								errs <- errors.New(name + ": a query racing Close served wrong bits")
								return
							}
						}
					}
				}
			}()
		}
		for range 4 {
			<-started
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if _, err := s.At(0, 1); err == nil {
			t.Fatalf("%s: At after Close served", name)
		}
		if _, err := s.Top(3); err == nil {
			t.Fatalf("%s: Top after Close served", name)
		}
	}
}

// BenchmarkStoreRead times the store reads a server makes, on the
// benchmark ledger's serve_store store (4096 SNPs × 2048 samples at tile
// size 128): an 80 × 80 region across a tile edge, a far-off-diagonal
// pair and a 128-row top, each on first-touch tiles (a store opened
// untimed before every call) and on tiles already checked. B/op and
// allocs/op are what a call allocates; the region's floats go back to
// bufpool.Floats, as the server's do.
func BenchmarkStoreRead(b *testing.B) {
	g, err := popsim.Mosaic(4096, 2048, popsim.MosaicConfig{Seed: 1, Founders: 16, SwitchRate: 0.005})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.ldts")
	if _, err := BuildFile(path, g, BuildOptions{TileSize: 128}); err != nil {
		b.Fatal(err)
	}
	for _, q := range []struct {
		name string
		read func(s *Store) error
	}{
		{"region80", func(s *Store) error {
			out, err := s.Region(1000, 1080)
			bufpool.Floats.Put(out)
			return err
		}},
		{"farpair", func(s *Store) error { _, err := s.At(10, 4000); return err }},
		{"top128", func(s *Store) error { _, err := s.TopRange(20, 1024, 1152); return err }},
	} {
		for _, first := range []bool{true, false} {
			name := q.name + "/verified"
			if first {
				name = q.name + "/first-touch"
			}
			b.Run(name, func(b *testing.B) {
				s, err := Open(path, Options{})
				if err != nil {
					b.Fatal(err)
				}
				defer func() { s.Close() }()
				if err := q.read(s); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					if first {
						b.StopTimer()
						s.Close()
						if s, err = Open(path, Options{}); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					if err := q.read(s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
