package ldstore

import (
	"container/heap"
	"fmt"
	"io"
	"math"
	"sort"

	"ldgemm/internal/bufpool"
	"ldgemm/internal/core"
	"ldgemm/internal/tilefile"
)

// Options configures a Store reader.
type Options struct {
	// CacheTiles is the LRU capacity in tiles (default 64). The resident
	// bound is CacheTiles × TileSize² × 8 bytes.
	CacheTiles int
}

type reader = tilefile.Reader[[]float64]

// Store serves LD statistics from a tile file built by Build. All query
// methods are safe for concurrent use. The embedded reader supplies
// Close, SNPs, Samples, Stat, TileSize and Fingerprint.
type Store struct {
	*reader
	// maxOff is each tile's maximum off-diagonal value, in index order:
	// the Top pruning bound, decoded once from the index aux words.
	maxOff []float64
}

// Open opens the tile store at path.
func Open(path string, opt Options) (*Store, error) {
	return newStore(tilefile.Open(path, &format, codec{}, opt.CacheTiles, &stats.Counters))
}

// OpenReader opens a tile store over an arbitrary random-access reader of
// the given size. The header and the whole index are validated before any
// query runs (see tilefile.OpenReader), so a corrupt or hostile file
// fails here with an error, never with a panic or an unbounded
// allocation.
func OpenReader(r io.ReaderAt, size int64, opt Options) (*Store, error) {
	return newStore(tilefile.OpenReader(r, size, &format, codec{}, opt.CacheTiles, &stats.Counters))
}

func newStore(r *reader, err error) (*Store, error) {
	if err != nil {
		return nil, err
	}
	s := &Store{reader: r, maxOff: make([]float64, len(r.Index))}
	for id, e := range r.Index {
		s.maxOff[id] = math.Float64frombits(e.Aux)
	}
	return s, nil
}

// Compressed reports whether tiles are DEFLATE-compressed.
func (s *Store) Compressed() bool { return s.Header.Flags&flagCompressed != 0 }

// Info summarizes a store for tooling.
type Info struct {
	SNPs        int     `json:"snps"`
	Samples     int     `json:"samples"`
	Stat        string  `json:"stat"`
	TileSize    int     `json:"tile_size"`
	Tiles       int     `json:"tiles"`
	Compressed  bool    `json:"compressed"`
	Fingerprint string  `json:"fingerprint"`
	TileBytes   int64   `json:"tile_bytes"`
	RawBytes    int64   `json:"raw_bytes"`
	Ratio       float64 `json:"compression_ratio"`
}

// Info returns the store's header summary.
func (s *Store) Info() Info {
	var raw int64
	for id := range s.Index {
		t := s.TileAt(id)
		raw += int64(t.Rows) * int64(t.Cols) * 8
	}
	tileBytes := s.TileBytes()
	info := Info{
		SNPs: s.SNPs(), Samples: s.Samples(), Stat: s.Stat().String(),
		TileSize: s.TileSize(), Tiles: len(s.Index), Compressed: s.Compressed(),
		Fingerprint: fmt.Sprintf("%016x", s.Fingerprint()),
		TileBytes:   tileBytes, RawBytes: raw,
	}
	if raw > 0 {
		info.Ratio = float64(tileBytes) / float64(raw)
	}
	return info
}

// tileDim returns the row (or column) count of tile band t.
func (s *Store) tileDim(t int) int {
	return min(s.TileSize(), s.SNPs()-t*s.TileSize())
}

// At returns the stored statistic for the pair (i, j). The store is
// symmetric: argument order does not matter.
func (s *Store) At(i, j int) (float64, error) {
	if err := s.CheckSNP("i", i); err != nil {
		return 0, err
	}
	if err := s.CheckSNP("j", j); err != nil {
		return 0, err
	}
	if i > j {
		i, j = j, i
	}
	nt := s.TileSize()
	ti, tj := i/nt, j/nt
	vals, err := s.Tile(ti, tj)
	if err != nil {
		return 0, err
	}
	stats.bytesServed.Add(8)
	return vals[(i-ti*nt)*s.tileDim(tj)+(j-tj*nt)], nil
}

// Region materializes the dense (end−start)² statistic matrix for SNPs
// [start, end), row-major with both triangles filled — the payload of the
// server's /api/ld/region fast path. The matrix is taken from
// bufpool.Floats, as core's results are: a caller done with it may hand it
// back there, once; one never handed back is ordinary garbage.
func (s *Store) Region(start, end int) ([]float64, error) {
	n := s.SNPs()
	if start < 0 || end <= start || end > n {
		return nil, fmt.Errorf("ldstore: invalid region [%d,%d) of %d SNPs", start, end, n)
	}
	w := end - start
	out := bufpool.Floats.Get(w * w) // the tiles below cover every cell
	nt := s.TileSize()
	for ti := start / nt; ti*nt < end; ti++ {
		for tj := ti; tj*nt < end; tj++ {
			vals, err := s.Tile(ti, tj)
			if err != nil {
				bufpool.Floats.Put(out)
				return nil, err
			}
			cols := s.tileDim(tj)
			iLo, iHi := max(start, ti*nt), min(end, ti*nt+s.tileDim(ti))
			jLo, jHi := max(start, tj*nt), min(end, tj*nt+cols)
			for i := iLo; i < iHi; i++ {
				row := vals[(i-ti*nt)*cols:]
				for j := jLo; j < jHi; j++ {
					v := row[j-tj*nt]
					out[(i-start)*w+(j-start)] = v
					if ti != tj {
						// Diagonal tiles store their mirrored square;
						// off-diagonal tiles cover only i < j.
						out[(j-start)*w+(i-start)] = v
					}
				}
			}
		}
	}
	stats.bytesServed.Add(uint64(w) * uint64(w) * 8)
	return out, nil
}

// Rect materializes the dense rows [r0, r1) × columns [c0, c1) block of
// the symmetric statistic matrix, row-major — the payload of a cluster
// shard's row-restricted region request. Cells are read from whichever
// tile orientation holds them (the store keeps i ≤ j), so any rectangle
// is served, both triangles included. The block comes from bufpool.Floats,
// as Region's does.
func (s *Store) Rect(r0, r1, c0, c1 int) ([]float64, error) {
	n := s.SNPs()
	if r0 < 0 || r1 <= r0 || r1 > n || c0 < 0 || c1 <= c0 || c1 > n {
		return nil, fmt.Errorf("ldstore: invalid rect rows [%d,%d) cols [%d,%d) of %d SNPs", r0, r1, c0, c1, n)
	}
	w := c1 - c0
	out := bufpool.Floats.Get((r1 - r0) * w) // the tiles below cover every cell
	nt := s.TileSize()
	for tr := r0 / nt; tr*nt < r1; tr++ {
		for tc := c0 / nt; tc*nt < c1; tc++ {
			ti, tj := min(tr, tc), max(tr, tc)
			vals, err := s.Tile(ti, tj)
			if err != nil {
				bufpool.Floats.Put(out)
				return nil, err
			}
			cols := s.tileDim(tj)
			iLo, iHi := max(r0, tr*nt), min(r1, tr*nt+s.tileDim(tr))
			jLo, jHi := max(c0, tc*nt), min(c1, tc*nt+s.tileDim(tc))
			for i := iLo; i < iHi; i++ {
				dst := out[(i-r0)*w:]
				for j := jLo; j < jHi; j++ {
					// Diagonal tiles store the full mirrored square, so
					// (row, col) indexing is direct; an off-diagonal tile
					// read against the grain swaps its coordinates.
					a, b := i, j
					if tr > tc {
						a, b = j, i
					}
					dst[j-c0] = vals[(a-ti*nt)*cols+(b-tj*nt)]
				}
			}
		}
	}
	stats.bytesServed.Add(uint64(len(out)) * 8)
	return out, nil
}

// TopPair is one entry of a Top result.
type TopPair struct {
	I     int     `json:"i"`
	J     int     `json:"j"`
	Value float64 `json:"value"`
}

// Top returns the k strongest off-diagonal pairs by stored value,
// strongest first (ties broken by (I, J)). The per-tile maxima recorded
// at build time prune the scan: tiles whose maximum cannot displace the
// current k-th value are never read.
func (s *Store) Top(k int) ([]TopPair, error) { return s.TopRange(k, 0, s.SNPs()) }

// TopRange is Top restricted to pairs whose smaller index lies in
// [r0, r1) — the ownership rule of a cluster shard. The per-tile maxima
// still prune: a tile's recorded maximum bounds any row subset of it.
func (s *Store) TopRange(k, r0, r1 int) ([]TopPair, error) {
	if k < 1 {
		return nil, fmt.Errorf("ldstore: invalid top k=%d", k)
	}
	if n := s.SNPs(); r0 < 0 || r1 <= r0 || r1 > n {
		return nil, fmt.Errorf("ldstore: invalid top row range [%d,%d) of %d SNPs", r0, r1, n)
	}
	order := make([]int, 0, len(s.Index))
	for id := range s.Index {
		// Only tiles whose row band intersects the window hold owned pairs.
		if t := s.TileAt(id); t.Row0 < r1 && t.Row0+t.Rows > r0 {
			order = append(order, id)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		return s.maxOff[order[a]] > s.maxOff[order[b]]
	})
	h := &topHeap{}
	for _, id := range order {
		// Strict inequality: a tile whose maximum ties the current k-th
		// value can still hold a pair that wins on the (I, J) tie-break,
		// so only strictly-weaker tiles are pruned.
		if h.Len() == k && s.maxOff[id] < (*h)[0].Value {
			break
		}
		if math.IsInf(s.maxOff[id], -1) {
			break // only empty 1×1 diagonal tiles remain
		}
		c := s.TileAt(id)
		vals, err := s.Tile(c.TI, c.TJ)
		if err != nil {
			return nil, err
		}
		for r := 0; r < c.Rows; r++ {
			i := c.Row0 + r
			if i < r0 || i >= r1 {
				continue // row outside the ownership window
			}
			row := vals[r*c.Cols : (r+1)*c.Cols]
			for col, v := range row {
				if c.Diagonal() && col <= r {
					continue // mirrored square: keep i < j once, skip the diagonal
				}
				p := TopPair{I: i, J: c.Col0 + col, Value: v}
				if h.Len() < k {
					heap.Push(h, p)
				} else if topLess((*h)[0], p) {
					(*h)[0] = p
					heap.Fix(h, 0)
				}
			}
		}
		stats.bytesServed.Add(uint64(len(vals)) * 8)
	}
	out := make([]TopPair, h.Len())
	copy(out, *h)
	sort.Slice(out, func(a, b int) bool { return topLess(out[b], out[a]) })
	return out, nil
}

// topLess orders pairs weakest-first — the canonical ranking reversed —
// so the heap evicts the last-ranked among equals and the final ranking
// is deterministic.
func topLess(a, b TopPair) bool {
	return core.RanksBefore(b.Value, b.I, b.J, a.Value, a.I, a.J)
}

type topHeap []TopPair

func (h topHeap) Len() int           { return len(h) }
func (h topHeap) Less(i, j int) bool { return topLess(h[i], h[j]) }
func (h topHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *topHeap) Push(x any)        { *h = append(*h, x.(TopPair)) }
func (h *topHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

var _ heap.Interface = (*topHeap)(nil)

// Band visits every pair (i, j) with i in [start, end) and i ≤ j ≤
// i+band, mirroring core.BandedStream's coverage (diagonal included).
// Returning false from visit stops the scan early.
func (s *Store) Band(start, end, band int, visit func(i, j int, v float64) bool) error {
	n := s.SNPs()
	if band < 1 {
		return fmt.Errorf("ldstore: invalid band %d", band)
	}
	if start < 0 || end <= start || end > n {
		return fmt.Errorf("ldstore: invalid band range [%d,%d) of %d SNPs", start, end, n)
	}
	for i := start; i < end; i++ {
		for j := i; j <= min(i+band, n-1); j++ {
			v, err := s.At(i, j)
			if err != nil {
				return err
			}
			if !visit(i, j, v) {
				return nil
			}
		}
	}
	return nil
}
