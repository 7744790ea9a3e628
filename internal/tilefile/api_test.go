// Package tilefile_test holds black-box tests of the LD store's exported
// build API: they import ldstore as its callers do, so they see only the
// names cmd/, the server and the facade see. The store itself, its tile
// container and the rest of its suite live in internal/ldstore.
package tilefile_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/popsim"
)

// TestPartialErrorUnwrap keeps the error chain intact for errors.Is
// callers above the builder.
func TestPartialErrorUnwrap(t *testing.T) {
	inner := errors.New("disk on fire")
	pe := &ldstore.PartialError{FlushedStripes: 3, TotalStripes: 9, Err: inner}
	if !errors.Is(pe, inner) {
		t.Fatal("PartialError must unwrap to its cause")
	}
	if msg := pe.Error(); msg == "" || !errors.Is(fmt.Errorf("w: %w", pe), inner) {
		t.Fatal("PartialError formatting/wrapping broken")
	}
}

// TestKeptBuildMemoryAtZeroThreshold: at τ = 0 with no band every cell
// survives, so a kept build at Threads 4 holds four survivor lists of the
// largest stripe (rows 0–15, each from its diagonal to n: 1800 cells) on
// top of its three stripes, 8 bytes a cell, a column and a count — more
// than three times the dense build's counts stripes (7·(2·16·120 + 8·8) =
// 27 328 bytes) — and PeakResultBytes says so.
func TestKeptBuildMemoryAtZeroThreshold(t *testing.T) {
	const snps, nt, cells = 120, 16, 16*120 - 16*15/2
	g, err := popsim.Mosaic(snps, 64, popsim.MosaicConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ldbm := filepath.Join(t.TempDir(), "g.ldbm")
	if err := bitmat.WriteFile(ldbm, g); err != nil {
		t.Fatal(err)
	}
	src, err := bitmat.OpenFile(ldbm, false)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	opt := ldstore.SourceBuildOptions{BuildOptions: ldstore.BuildOptions{TileSize: nt}, IOPanelSNPs: nt}
	opt.LD.Blis.Threads = 4
	st, err := ldstore.BuildPrunedFromSource(filepath.Join(t.TempDir(), "s.store"), src, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(3*(8*(nt+1)+8*cells) + 4*8*cells); st.PeakResultBytes != want {
		t.Fatalf("PeakResultBytes %d, want %d", st.PeakResultBytes, want)
	}
}
