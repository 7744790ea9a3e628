package ldstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldgemm/internal/core"
)

// TestKindGuards: each kind answers only its own queries. Every query only
// a complete store serves fails with an error on a pruned store, and the
// sparse operators fail on a complete store — never zeros, never a panic —
// while At and Lookup serve both, with the bits core.Matrix computes.
func TestKindGuards(t *testing.T) {
	g := testMatrix(t, 50, 48, 3)
	complete := buildStore(t, g, BuildOptions{TileSize: 16}, Options{})
	pruned := buildStore(t, g, BuildOptions{TileSize: 16, Threshold: 0.02}, Options{})
	if complete.Pruned() || !pruned.Pruned() {
		t.Fatalf("kinds: complete store pruned=%v, pruned store pruned=%v", complete.Pruned(), pruned.Pruned())
	}
	x := make([]float64, g.SNPs)
	for i := range x {
		x[i] = 1
	}
	refused := func(kind, query string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s store served %s", kind, query)
		}
	}
	_, err := pruned.Cell(core.MeasureR2, 1, 2)
	refused("pruned", "Cell", err)
	_, _, _, err = pruned.Pair(1, 2)
	refused("pruned", "Pair", err)
	_, err = pruned.Region(0, 10)
	refused("pruned", "Region", err)
	_, err = pruned.Rect(core.MeasureD, 0, 10, 5, 20)
	refused("pruned", "Rect", err)
	_, err = pruned.Top(3)
	refused("pruned", "Top", err)
	_, err = pruned.TopRange(3, 0, 10)
	refused("pruned", "TopRange", err)
	_, err = complete.MatVec(x)
	refused("complete", "MatVec", err)
	_, err = complete.MatVecRange(x, 0, 10)
	refused("complete", "MatVecRange", err)
	_, err = complete.Score(x)
	refused("complete", "Score", err)
	_, err = complete.ScoreRange(x, 0, 10)
	refused("complete", "ScoreRange", err)

	want := dense(t, g, StatR2)
	n := g.SNPs
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for _, s := range []*Store{complete, pruned} {
				v, ok, err := s.Lookup(i, j)
				at, aerr := s.At(i, j)
				if err != nil || aerr != nil || math.Float64bits(at) != math.Float64bits(v) {
					t.Fatalf("pruned=%v (%d,%d): Lookup %v %v, At %v %v", s.Pruned(), i, j, v, err, at, aerr)
				}
				if kept := !s.Pruned() || math.Abs(want[i*n+j]) >= 0.02; ok != kept || (ok && math.Float64bits(v) != math.Float64bits(want[i*n+j])) {
					t.Fatalf("pruned=%v (%d,%d): Lookup %v present=%v, want %v present=%v", s.Pruned(), i, j, v, ok, want[i*n+j], kept)
				}
			}
		}
	}
}

// TestPrunedWideCounts: a pruned store of N = 65 536 samples, one past
// the 2-byte count range, stores 4-byte counts, and its MatVec and Lookup
// are bit for bit the serial fold and the values over core.Matrix's r² —
// resident and laid out per call. A tile hand-patched to hold a count above
// N, under a correct checksum, is refused at open.
func TestPrunedWideCounts(t *testing.T) {
	g := testMatrix(t, 37, 65536, 3)
	const tau, band = 0.01, 20
	path := filepath.Join(t.TempDir(), "wide.ldss")
	if _, err := BuildFile(path, g, BuildOptions{TileSize: 8, Threshold: tau, Banded: true, Band: band}); err != nil {
		t.Fatal(err)
	}
	n := g.SNPs
	r2 := dense(t, g, StatR2)
	kept := func(i, j int) bool { return max(i-j, j-i) <= band && math.Abs(r2[i*n+j]) >= tau }
	x := make([]float64, n)
	want := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(3*i + 1))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if kept(i, j) {
				want[i] += r2[i*n+j] * x[j]
			}
		}
	}
	for _, budget := range []int64{residentBudget, 0} {
		restore := SetResidentBudgetForTest(budget)
		s, err := Open(path, Options{})
		restore()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if info := s.Info(); info.CountBytes != 4 || info.Resident != (budget > 0) || s.NNZ() == 0 {
			t.Fatalf("budget %d: info %+v", budget, info)
		}
		y, err := s.MatVec(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
				t.Fatalf("budget %d: y[%d] = %v, serial fold %v", budget, i, y[i], want[i])
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v, ok, err := s.Lookup(i, j)
				if err != nil || ok != kept(i, j) || (ok && math.Float64bits(v) != math.Float64bits(r2[i*n+j])) {
					t.Fatalf("budget %d: Lookup(%d,%d) = %v present=%v err=%v, want %v present=%v", budget, i, j, v, ok, err, r2[i*n+j], kept(i, j))
				}
			}
		}
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	index := b[le.Uint64(b[48:]):]
	entry := index[:24] // tile (0, 0): the diagonal always keeps an entry
	payload := b[le.Uint64(entry):][:le.Uint32(entry[8:])]
	rows, nnz := 8, int(le.Uint64(entry[16:]))
	le.PutUint32(payload[(rows+1)*4+2*nnz:], 65536+1) // the first entry's count
	le.PutUint32(entry[12:], crc32.ChecksumIEEE(payload))
	if _, err := OpenReader(bytes.NewReader(b), int64(len(b)), Options{}); err == nil || !strings.Contains(err.Error(), "joint count 65537") {
		t.Fatalf("a count above N opened: %v", err)
	}
}

// TestPrunedVersion1Refused: an LDSS store of version 1, which held f64
// values of one statistic (testdata/v1.ldss, written by that format's
// builder), is refused at open for its version.
func TestPrunedVersion1Refused(t *testing.T) {
	if _, err := Open(filepath.Join("testdata", "v1.ldss"), Options{}); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 LDSS store: %v", err)
	}
}
