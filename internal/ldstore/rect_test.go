package ldstore

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"ldgemm/internal/core"
)

// TestStoreRect checks row-restricted rectangles against the dense
// reference for windows that cross tile boundaries, sit entirely below
// the diagonal (against-the-grain tile reads), and degenerate to single
// rows/columns.
func TestStoreRect(t *testing.T) {
	g := testMatrix(t, 70, 40, 77)
	want := dense(t, g, StatR2)
	s := buildStore(t, g, BuildOptions{TileSize: 16}, Options{})
	n := g.SNPs
	rects := [][4]int{
		{0, 70, 0, 70},   // everything
		{10, 30, 25, 60}, // straddles the diagonal
		{40, 65, 0, 20},  // strictly below the diagonal
		{0, 16, 16, 32},  // exact tile alignment
		{33, 34, 0, 70},  // single row
		{0, 70, 47, 48},  // single column
	}
	for _, rc := range rects {
		r0, r1, c0, c1 := rc[0], rc[1], rc[2], rc[3]
		got, err := s.Rect(core.MeasureR2, r0, r1, c0, c1)
		if err != nil {
			t.Fatalf("Rect%v: %v", rc, err)
		}
		w := c1 - c0
		if len(got) != (r1-r0)*w {
			t.Fatalf("Rect%v returned %d values", rc, len(got))
		}
		for i := r0; i < r1; i++ {
			for j := c0; j < c1; j++ {
				if got[(i-r0)*w+(j-c0)] != want[i*n+j] {
					t.Fatalf("Rect%v (%d,%d) = %v, want %v", rc, i, j, got[(i-r0)*w+(j-c0)], want[i*n+j])
				}
			}
		}
	}
	for _, rc := range [][4]int{{-1, 5, 0, 5}, {5, 5, 0, 5}, {0, 5, 5, 5}, {0, 71, 0, 5}, {0, 5, 0, 71}} {
		if _, err := s.Rect(core.MeasureR2, rc[0], rc[1], rc[2], rc[3]); err == nil {
			t.Fatalf("Rect%v accepted", rc)
		}
	}
	for _, m := range []core.Measure{0, core.MeasureD | core.MeasureR2, core.KeepCounts} {
		if _, err := s.Rect(m, 0, 5, 0, 5); err == nil {
			t.Fatalf("Rect of measure %d accepted", m)
		}
		if _, err := s.Cell(m, 0, 5); err == nil {
			t.Fatalf("Cell of measure %d accepted", m)
		}
	}
}

// TestStoreTopRange checks that per-strip tops union to the global top:
// ownership by the smaller index makes the strips disjoint and complete.
func TestStoreTopRange(t *testing.T) {
	g := testMatrix(t, 64, 48, 21)
	s := buildStore(t, g, BuildOptions{TileSize: 16}, Options{})
	k := 500                 // larger than the number of off-diagonal pairs in any strip? no: exhaustive
	full, err := s.Top(2016) // all 64·63/2 pairs
	if err != nil {
		t.Fatal(err)
	}
	var merged []TopPair
	for _, w := range [][2]int{{0, 10}, {10, 40}, {40, 64}} {
		part, err := s.TopRange(2016, w[0], w[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range part {
			if p.I < w[0] || p.I >= w[1] || p.J <= p.I {
				t.Fatalf("strip %v returned pair %+v", w, p)
			}
		}
		merged = append(merged, part...)
	}
	if len(merged) != len(full) {
		t.Fatalf("strips union to %d pairs, full scan %d", len(merged), len(full))
	}
	seen := make(map[[2]int]float64, len(merged))
	for _, p := range merged {
		seen[[2]int{p.I, p.J}] = p.Value
	}
	for _, p := range full {
		v, ok := seen[[2]int{p.I, p.J}]
		if !ok || math.Float64bits(v) != math.Float64bits(p.Value) {
			t.Fatalf("pair %+v missing or differs in strip union", p)
		}
	}
	// A small-k strip query must agree with filtering the global ranking.
	part, err := s.TopRange(5, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	var filtered []TopPair
	for _, p := range full {
		if p.I >= 10 && p.I < 40 {
			filtered = append(filtered, p)
			if len(filtered) == 5 {
				break
			}
		}
	}
	if len(part) != len(filtered) {
		t.Fatalf("TopRange(5) returned %d pairs", len(part))
	}
	for i := range part {
		if part[i] != filtered[i] {
			t.Fatalf("TopRange rank %d: %+v, want %+v", i, part[i], filtered[i])
		}
	}
	if _, err := s.TopRange(k, 40, 10); err == nil {
		t.Fatal("inverted row range accepted")
	}
}

// TestCacheConcurrentConsistency hammers one store from 8 goroutines
// mixing At and Region lookups and then checks the hit/miss counters add
// up exactly: every tile() call records exactly one hit or one miss, so
// under any interleaving hits+misses must equal the number of lookups
// issued. Run under -race this also exercises the first-touch checks of
// tiles several goroutines meet at once.
func TestCacheConcurrentConsistency(t *testing.T) {
	g := testMatrix(t, 80, 40, 99)
	want := dense(t, g, StatR2)
	s := buildStore(t, g, BuildOptions{TileSize: 16}, Options{CacheTiles: 2})
	n := g.SNPs
	nt := s.TileSize()
	before := ReadStats()
	var lookups atomic.Int64 // tile() calls issued across all workers
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < 60; q++ {
				i, j := (w*17+q*5)%n, (w*7+q*11)%n
				v, err := s.At(i, j)
				if err != nil {
					errs <- err
					return
				}
				lookups.Add(1) // At reads exactly one tile
				if math.Float64bits(v) != math.Float64bits(want[i*n+j]) {
					errs <- fmt.Errorf("At(%d,%d) = %v, want %v", i, j, v, want[i*n+j])
					return
				}
				if q%6 == 0 {
					lo := min(i, n-20)
					if _, err := s.Region(lo, lo+20); err != nil {
						errs <- err
						return
					}
					// Count the region's tile visits the way Region does.
					c := int64(0)
					for ti := lo / nt; ti*nt < lo+20; ti++ {
						for tj := ti; tj*nt < lo+20; tj++ {
							c++
						}
					}
					lookups.Add(c)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Serial epilogue: an immediate re-read of the same tile is a
	// guaranteed hit, so the hit assertion below cannot be scheduling-
	// dependent.
	for r := 0; r < 2; r++ {
		if _, err := s.At(0, 0); err != nil {
			t.Fatal(err)
		}
		lookups.Add(1)
	}
	after := ReadStats()
	gotLookups := int64(after.CacheHits-before.CacheHits) + int64(after.CacheMisses-before.CacheMisses)
	if gotLookups != lookups.Load() {
		t.Fatalf("hits+misses moved by %d, issued %d lookups", gotLookups, lookups.Load())
	}
	// Every miss decodes and reads a tile; concurrent same-tile misses may
	// each read, so TilesRead must equal the miss count exactly.
	if int64(after.TilesRead-before.TilesRead) != int64(after.CacheMisses-before.CacheMisses) {
		t.Fatalf("tiles_read moved by %d, misses by %d",
			after.TilesRead-before.TilesRead, after.CacheMisses-before.CacheMisses)
	}
	if after.CacheHits == before.CacheHits {
		t.Fatal("no cache hits at all under a hot working set")
	}
	if after.Evictions != before.Evictions {
		t.Fatal("a store that caches nothing evicted")
	}
}
