package ldsparse

import (
	"fmt"
	"io"
	"math"
	"sort"

	"ldgemm/internal/tilefile"
)

// Options configures a Store reader.
type Options struct {
	// CacheTiles is the decoded-tile LRU capacity in tiles (default 64).
	// The LRU serves At/Lookup, and the operators only of a store too large
	// to keep resident (see Info.Resident). Capacity is approximate in bytes
	// (tiles vary in nnz): CacheTiles × the largest tile's decoded size.
	CacheTiles int
}

type reader = tilefile.Reader[*csrTile]

// Store serves sparse LD operators from a CSR tile file built by Build.
// All query methods are safe for concurrent use. The embedded reader
// supplies Close, SNPs, Samples, Stat, TileSize and Fingerprint.
type Store struct {
	*reader
	rows *rowCSR // every row, laid out at open; nil above residentBudget
}

// Open opens the sparse tile store at path.
func Open(path string, opt Options) (*Store, error) {
	return newStore(tilefile.Open(path, &format, codec{}, opt.CacheTiles, &stats.Counters))
}

// OpenReader opens a sparse tile store over an arbitrary random-access
// reader of the given size. The header and the whole index are validated
// before any query runs (see tilefile.OpenReader), every entry's payload
// length must equal the CSR size of its declared entry count, and the
// per-tile counts must sum to the header's total — so a corrupt or
// hostile file fails here with an error, never with a panic or an
// unbounded allocation. A store inside the residency budget then decodes
// every non-empty tile into its row layout (matvec.go), so a bad checksum
// or CSR structure is refused here too; a larger store meets those checks
// when a query first decodes the tile.
func OpenReader(r io.ReaderAt, size int64, opt Options) (*Store, error) {
	return newStore(tilefile.OpenReader(r, size, &format, codec{}, opt.CacheTiles, &stats.Counters))
}

func newStore(r *reader, err error) (*Store, error) {
	if err != nil {
		return nil, err
	}
	s := &Store{reader: r}
	if s.rows, err = s.load(); err != nil {
		r.Close()
		return nil, err
	}
	return s, nil
}

// load checks the index against the header's totals — the entry counts
// sum to nnz, and under a band no tile beyond its reach holds any — and
// lays the rows out when they fit the residency budget (nil when not).
func (s *Store) load() (*rowCSR, error) {
	var total uint64
	reach, id := s.reach(), 0
	for ti := 0; ti < s.Bands; ti++ {
		for tj := ti; tj < s.Bands; tj, id = tj+1, id+1 {
			aux := s.Index[id].Aux
			if aux != 0 && tj-ti > reach {
				return nil, fmt.Errorf("ldsparse: tile (%d,%d) holds %d entries outside the band of %d", ti, tj, aux, s.Band())
			}
			total += aux
		}
	}
	if total != uint64(s.NNZ()) {
		return nil, fmt.Errorf("ldsparse: index entries sum to %d nnz, header says %d", total, s.NNZ())
	}
	// Two row arrays, and 12 bytes for each stored entry and for its mirror.
	if 8*int64(s.SNPs()+1)+24*s.NNZ() > residentBudget {
		return nil, nil
	}
	return s.assemble(0, s.Bands)
}

// SetResidentBudgetForTest overrides the budget until restore is called, so
// tests here and in tilefile reach the over-budget path with small files.
func SetResidentBudgetForTest(bytes int64) (restore func()) {
	old := residentBudget
	residentBudget = bytes
	return func() { residentBudget = old }
}

// Threshold returns the pruning cutoff τ stamped at build time.
func (s *Store) Threshold() float64 {
	return math.Float64frombits(extWord(&s.Header, extThreshold))
}

// Banded reports whether the store was built under a band window, and
// Band its width (0 unless Banded).
func (s *Store) Banded() bool { return s.Header.Flags&flagBanded != 0 }
func (s *Store) Band() int    { return int(extWord(&s.Header, extBand)) }

// NNZ returns the number of stored (surviving) upper-triangle entries.
func (s *Store) NNZ() int64 { return int64(extWord(&s.Header, extNNZ)) }

// Info summarizes a sparse store for tooling.
type Info struct {
	SNPs        int     `json:"snps"`
	Samples     int     `json:"samples"`
	Stat        string  `json:"stat"`
	TileSize    int     `json:"tile_size"`
	Tiles       int     `json:"tiles"`
	EmptyTiles  int     `json:"empty_tiles"`
	Threshold   float64 `json:"threshold"`
	Banded      bool    `json:"banded"`
	Band        int     `json:"band"`
	NNZ         int64   `json:"nnz"`
	Density     float64 `json:"density"` // nnz / upper-triangle cells
	Fingerprint string  `json:"fingerprint"`
	TileBytes   int64   `json:"tile_bytes"`
	FileBytes   int64   `json:"file_bytes"`
	DenseBytes  int64   `json:"dense_bytes"` // upper triangle at 8 bytes/cell
	// Resident: the operators fold a row layout of ResidentBytes kept since open.
	Resident      bool  `json:"resident"`
	ResidentBytes int64 `json:"resident_bytes"`
}

// Info returns the store's header summary.
func (s *Store) Info() Info {
	empty := 0
	for _, e := range s.Index {
		if e.Aux == 0 {
			empty++
		}
	}
	n := int64(s.SNPs())
	cells := n * (n + 1) / 2
	info := Info{
		SNPs: s.SNPs(), Samples: s.Samples(), Stat: s.Stat().String(),
		TileSize: s.TileSize(), Tiles: len(s.Index), EmptyTiles: empty,
		Threshold: s.Threshold(), Banded: s.Banded(), Band: s.Band(),
		NNZ:         s.NNZ(),
		Fingerprint: fmt.Sprintf("%016x", s.Fingerprint()),
		TileBytes:   s.TileBytes(),
		FileBytes:   int64(s.Header.IndexOffset) + int64(len(s.Index))*tilefile.IndexEntrySize,
		DenseBytes:  cells * 8,
	}
	if cells > 0 {
		info.Density = float64(s.NNZ()) / float64(cells)
	}
	if c := s.rows; c != nil {
		info.Resident = true
		info.ResidentBytes = 4*int64(len(c.ptr)+len(c.stored)+len(c.col)) + 8*int64(len(c.val))
	}
	return info
}

// At returns the stored statistic for the pair (i, j), or 0 when the
// pair was pruned (or out of band). The store is symmetric: argument
// order does not matter.
func (s *Store) At(i, j int) (float64, error) {
	v, _, err := s.Lookup(i, j)
	return v, err
}

// Lookup is At plus an explicit presence flag, distinguishing a stored
// zero from a pruned entry.
func (s *Store) Lookup(i, j int) (float64, bool, error) {
	if err := s.CheckSNP("i", i); err != nil {
		return 0, false, err
	}
	if err := s.CheckSNP("j", j); err != nil {
		return 0, false, err
	}
	if i > j {
		i, j = j, i
	}
	nt := s.TileSize()
	ti, tj := i/nt, j/nt
	if s.Entry(ti, tj).Aux == 0 {
		stats.bytesServed.Add(8)
		return 0, false, nil // the index alone answers for an empty tile
	}
	t, err := s.Tile(ti, tj)
	if err != nil {
		return 0, false, err
	}
	r := i - ti*nt
	want := uint16(j - tj*nt)
	lo, hi := int(t.rowPtr[r]), int(t.rowPtr[r+1])
	k := lo + sort.Search(hi-lo, func(k int) bool { return t.cols[lo+k] >= want })
	stats.bytesServed.Add(8)
	if k < hi && t.cols[k] == want {
		return t.vals[k], true, nil
	}
	return 0, false, nil
}
