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
	// bound is CacheTiles × TileSize² × 4 bytes: a cached tile is its
	// counts, widened to uint32.
	CacheTiles int
}

type reader = tilefile.Reader[[]uint32]

// Store serves LD statistics from a tile file built by Build: every
// measure from the one store, converted from its counts bit for bit as
// core.Matrix computes it. All query methods are safe for concurrent use.
// The embedded reader supplies Close, SNPs, Samples, Stat (r², the
// measure of At, Region and Top), TileSize and Fingerprint.
type Store struct {
	*reader
	conv *core.CountConverter
	// maxOff is each tile's maximum off-diagonal r², in index order: the
	// Top pruning bound, decoded once from the index aux words.
	maxOff []float64
}

// Open opens the tile store at path.
func Open(path string, opt Options) (*Store, error) {
	return newStore(tilefile.Open(path, &format, codec{}, opt.CacheTiles, &stats.Counters))
}

// OpenReader opens a tile store over an arbitrary random-access reader of
// the given size. The header, the allele-count table and the whole index
// are validated before any query runs (see tilefile.OpenReader), so a
// corrupt or hostile file fails here with an error, never with a panic or
// an unbounded allocation.
func OpenReader(r io.ReaderAt, size int64, opt Options) (*Store, error) {
	return newStore(tilefile.OpenReader(r, size, &format, codec{}, opt.CacheTiles, &stats.Counters))
}

func newStore(r *reader, err error) (*Store, error) {
	if err != nil {
		return nil, err
	}
	s := &Store{reader: r, maxOff: make([]float64, len(r.Index)),
		conv: core.NewCountConverter(alleleCounts(&r.Header), r.Samples())}
	for id, e := range r.Index {
		s.maxOff[id] = math.Float64frombits(e.Aux)
	}
	return s, nil
}

// Info summarizes a store for tooling.
type Info struct {
	SNPs        int    `json:"snps"`
	Samples     int    `json:"samples"`
	Stat        string `json:"stat"`
	TileSize    int    `json:"tile_size"`
	Tiles       int    `json:"tiles"`
	CountBytes  int    `json:"count_bytes"`
	Fingerprint string `json:"fingerprint"`
	TileBytes   int64  `json:"tile_bytes"`
}

// Info returns the store's header summary.
func (s *Store) Info() Info {
	return Info{
		SNPs: s.SNPs(), Samples: s.Samples(), Stat: s.Stat().String(),
		TileSize: s.TileSize(), Tiles: len(s.Index), CountBytes: int(s.Header.TableWidth),
		Fingerprint: fmt.Sprintf("%016x", s.Fingerprint()),
		TileBytes:   s.TileBytes(),
	}
}

// tileDim returns the row (or column) count of tile band t.
func (s *Store) tileDim(t int) int {
	return min(s.TileSize(), s.SNPs()-t*s.TileSize())
}

// checkMeasure rejects anything but exactly one of D, r² and D′.
func checkMeasure(m core.Measure) error {
	if m != core.MeasureD && m != core.MeasureR2 && m != core.MeasureDPrime {
		return fmt.Errorf("ldstore: measure %d is not one of D, r², D′", m)
	}
	return nil
}

// At returns r² for the pair (i, j). The store is symmetric: argument
// order does not matter.
func (s *Store) At(i, j int) (float64, error) { return s.Cell(core.MeasureR2, i, j) }

// Cell returns measure m (MeasureD, MeasureR2 or MeasureDPrime) for the
// pair (i, j), in either order.
func (s *Store) Cell(m core.Measure, i, j int) (float64, error) {
	if err := checkMeasure(m); err != nil {
		return 0, err
	}
	cnt, i, j, err := s.count(i, j)
	if err != nil {
		return 0, err
	}
	var v [1]float64
	s.conv.Row(m, v[:], cnt, i, j)
	stats.bytesServed.Add(8)
	return v[0], nil
}

// Pair returns D, r² and D′ for the pair (i, j), in either order, from one
// tile lookup.
func (s *Store) Pair(i, j int) (d, r2, dprime float64, err error) {
	cnt, i, j, err := s.count(i, j)
	if err != nil {
		return 0, 0, 0, err
	}
	var v [3]float64
	s.conv.Row(core.MeasureD, v[0:1], cnt, i, j)
	s.conv.Row(core.MeasureR2, v[1:2], cnt, i, j)
	s.conv.Row(core.MeasureDPrime, v[2:3], cnt, i, j)
	stats.bytesServed.Add(24)
	return v[0], v[1], v[2], nil
}

// count returns the joint count of SNPs i and j as a one-cell row, and
// the pair ordered i ≤ j.
func (s *Store) count(i, j int) ([]uint32, int, int, error) {
	if err := s.CheckSNP("i", i); err != nil {
		return nil, 0, 0, err
	}
	if err := s.CheckSNP("j", j); err != nil {
		return nil, 0, 0, err
	}
	if i > j {
		i, j = j, i
	}
	nt := s.TileSize()
	ti, tj := i/nt, j/nt
	counts, err := s.Tile(ti, tj)
	if err != nil {
		return nil, 0, 0, err
	}
	k := (i-ti*nt)*s.tileDim(tj) + (j - tj*nt)
	return counts[k : k+1], i, j, nil
}

// Region materializes the dense (end−start)² r² matrix for SNPs [start,
// end), row-major with both triangles filled: Rect over the square.
func (s *Store) Region(start, end int) ([]float64, error) {
	n := s.SNPs()
	if start < 0 || end <= start || end > n {
		return nil, fmt.Errorf("ldstore: invalid region [%d,%d) of %d SNPs", start, end, n)
	}
	return s.Rect(core.MeasureR2, start, end, start, end)
}

// Rect materializes measure m (MeasureD, MeasureR2 or MeasureDPrime) over
// rows [r0, r1) × columns [c0, c1) of the symmetric matrix, row-major — the
// payload of the server's region requests, a cluster shard's
// row-restricted ones among them. Each cell is converted from the tile
// orientation that holds it (the store keeps i ≤ j): a tile read against
// the grain converts its own rows, whose pairs are the rectangle's
// transposed, and measures are symmetric in their two SNPs to the bit. A
// square rectangle converts each pair of its upper tiles once and mirrors
// it. The block comes from bufpool.Floats, as core's results do: a caller
// done with it may hand it back there, once; one never handed back is
// ordinary garbage.
func (s *Store) Rect(m core.Measure, r0, r1, c0, c1 int) ([]float64, error) {
	if err := checkMeasure(m); err != nil {
		return nil, err
	}
	n := s.SNPs()
	if r0 < 0 || r1 <= r0 || r1 > n || c0 < 0 || c1 <= c0 || c1 > n {
		return nil, fmt.Errorf("ldstore: invalid rect rows [%d,%d) cols [%d,%d) of %d SNPs", r0, r1, c0, c1, n)
	}
	w := c1 - c0
	out := bufpool.Floats.Get((r1 - r0) * w) // the tiles below cover every cell
	square := r0 == c0 && r1 == c1
	nt := s.TileSize()
	var scratch []float64
	for tr := r0 / nt; tr*nt < r1; tr++ {
		for tc := c0 / nt; tc*nt < c1; tc++ {
			if square && tr > tc {
				continue // mirrored from tile (tc, tr)
			}
			ti, tj := min(tr, tc), max(tr, tc)
			counts, err := s.Tile(ti, tj)
			if err != nil {
				bufpool.Floats.Put(out)
				return nil, err
			}
			cols := s.tileDim(tj)
			iLo, iHi := max(r0, tr*nt), min(r1, tr*nt+s.tileDim(tr))
			jLo, jHi := max(c0, tc*nt), min(c1, tc*nt+s.tileDim(tc))
			if tr > tc {
				// Stored row j holds the pairs (j, i) of columns i.
				if scratch == nil {
					scratch = make([]float64, nt)
				}
				row := scratch[:iHi-iLo]
				for j := jLo; j < jHi; j++ {
					s.conv.Row(m, row, counts[(j-ti*nt)*cols+iLo-tj*nt:][:len(row)], j, iLo)
					for x, v := range row {
						out[(iLo+x-r0)*w+j-c0] = v
					}
				}
				continue
			}
			for i := iLo; i < iHi; i++ {
				row := out[(i-r0)*w+jLo-c0:][:jHi-jLo]
				s.conv.Row(m, row, counts[(i-ti*nt)*cols+jLo-tj*nt:][:len(row)], i, jLo)
				if square && tr < tc {
					for x, v := range row {
						out[(jLo+x-c0)*w+i-r0] = v
					}
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

// Top returns the k strongest off-diagonal pairs by r²,
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
	scratch := make([]float64, s.TileSize())
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
		counts, err := s.Tile(c.TI, c.TJ)
		if err != nil {
			return nil, err
		}
		for r := 0; r < c.Rows; r++ {
			i := c.Row0 + r
			if i < r0 || i >= r1 {
				continue // row outside the ownership window
			}
			from := 0
			if c.Diagonal() {
				from = r + 1 // mirrored square: keep i < j once, skip the diagonal
			}
			row := scratch[:c.Cols-from]
			s.conv.Row(core.MeasureR2, row, counts[r*c.Cols+from:(r+1)*c.Cols], i, c.Col0+from)
			for col, v := range row {
				p := TopPair{I: i, J: c.Col0 + from + col, Value: v}
				if h.Len() < k {
					heap.Push(h, p)
				} else if topLess((*h)[0], p) {
					(*h)[0] = p
					heap.Fix(h, 0)
				}
			}
		}
		stats.bytesServed.Add(uint64(len(counts)) * 8)
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

// Band visits the r² of every pair (i, j) with i in [start, end) and i ≤
// j ≤ i+band, mirroring core.BandedStream's coverage (diagonal included).
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
