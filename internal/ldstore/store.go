package ldstore

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"ldgemm/internal/bufpool"
	"ldgemm/internal/core"
)

// Options configures a Store reader.
type Options struct {
	// CacheTiles is the decoded-tile LRU capacity in tiles (default 64). A
	// complete store caches a tile as its counts widened to uint32, so it
	// holds at most CacheTiles × TileSize² × 4 bytes. A pruned store's LRU
	// serves At and Lookup, and the operators only of a store too large to
	// keep resident (Info.Resident).
	CacheTiles int
}

// Store serves LD from a store of either kind (see the package doc); a
// query its kind does not serve returns an error. All query methods are
// safe for concurrent use: tile reads go through ReadAt and the LRU is
// mutex-guarded.
type Store struct {
	// header is the validated file header, bands the number of tile bands
	// per side, index the tile entries in on-disk order.
	header Header
	bands  int
	index  []Entry

	// coords maps an index position back to (ti, tj). A genome-scale
	// pruned store has millions of tiles, so it is kept to 8 bytes each;
	// the band count of any file that fits its own index is far below 2³¹.
	coords [][2]int32

	r      io.ReaderAt
	file   io.Closer // nil when opened over a caller's reader
	cache  *lru
	conv   *core.CountConverter
	st     *counters
	pruned bool
	rows   *rowCSR // a pruned store's rows, laid out at open; nil above residentBudget
}

// Open opens the store at path, of either kind.
func Open(path string, opt Options) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var s *Store
	fi, err := f.Stat()
	if err == nil {
		s, err = OpenReader(f, fi.Size(), opt)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ldstore: %s: %w", path, err)
	}
	s.file = f
	return s, nil
}

// OpenReader opens a store over an arbitrary random-access reader of the
// given size; its magic says the kind. The header, the allele-count table
// and the whole index are validated before any query runs (see open), a
// pruned store's entry counts must sum to its total with none beyond its
// band, and a pruned store inside the residency budget decodes every tile
// into its row layout (matvec.go) — so a corrupt or hostile file fails
// with an error, here or at a tile's first read, never with a panic or an
// unbounded allocation.
func OpenReader(r io.ReaderAt, size int64, opt Options) (*Store, error) {
	var magic [4]byte
	r.ReadAt(magic[:], 0) // a short file is open's to refuse
	s := &Store{r: r, pruned: magic == ldssFormat.magic, st: &stats[0]}
	if s.pruned {
		s.st = &stats[1]
	}
	if err := s.open(size, opt.CacheTiles); err != nil {
		return nil, err
	}
	s.conv = core.NewCountConverter(alleleCounts(&s.header), s.Samples())
	if s.pruned {
		var err error
		if s.rows, err = s.load(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Close releases the store's file, if Open opened it.
func (s *Store) Close() error {
	if s.file == nil {
		return nil
	}
	return s.file.Close()
}

// Pruned reports whether the store is pruned (LDSS), not complete (LDTS).
func (s *Store) Pruned() bool { return s.pruned }

// serves refuses a query that only a store of the other kind answers: a
// pruned store serves At, Lookup, MatVec and Score, a complete one the
// rest and At and Lookup.
func (s *Store) serves(pruned bool) error {
	if s.pruned != pruned {
		return fmt.Errorf("ldstore: this query needs a %s store", map[bool]string{false: "complete", true: "pruned"}[pruned])
	}
	return nil
}

// Threshold, Banded and Band are a pruned store's predicate (τ, and the
// window |i−j| ≤ Band when Banded), and NNZ its stored upper-triangle
// entries; a complete store has none of them (0, false, 0, 0).
func (s *Store) Threshold() float64 { return math.Float64frombits(s.ext(extThreshold)) }
func (s *Store) Banded() bool       { return s.header.Flags&flagBanded != 0 }
func (s *Store) Band() int          { return int(s.ext(extBand)) }
func (s *Store) NNZ() int64         { return int64(s.ext(extNNZ)) }

// ext reads one 64-bit field of a pruned store's header extension.
func (s *Store) ext(off int) uint64 {
	if !s.pruned {
		return 0
	}
	return binary.LittleEndian.Uint64(s.header.Ext[off:])
}

// Info summarizes a store for tooling. DenseBytes is the tile payload of
// the complete store of the same shape and N, every tile's rows × cols
// counts; the fields after Pruned are a pruned store's predicate and
// entries (Density: nnz over the upper triangle's cells), and, when its
// operators fold a row layout kept since open, that layout's size.
type Info struct {
	SNPs          int     `json:"snps"`
	Samples       int     `json:"samples"`
	Stat          string  `json:"stat"`
	TileSize      int     `json:"tile_size"`
	Tiles         int     `json:"tiles"`
	CountBytes    int     `json:"count_bytes"`
	Fingerprint   string  `json:"fingerprint"`
	TileBytes     int64   `json:"tile_bytes"`
	FileBytes     int64   `json:"file_bytes"`
	DenseBytes    int64   `json:"dense_bytes"`
	Pruned        bool    `json:"pruned"`
	Threshold     float64 `json:"threshold"`
	Banded        bool    `json:"banded"`
	Band          int     `json:"band"`
	NNZ           int64   `json:"nnz"`
	EmptyTiles    int     `json:"empty_tiles"`
	Density       float64 `json:"density"`
	Resident      bool    `json:"resident"`
	ResidentBytes int64   `json:"resident_bytes"`
}

// Info returns the store's header summary.
func (s *Store) Info() Info {
	info := Info{
		SNPs: s.SNPs(), Samples: s.Samples(), Stat: s.Stat().String(),
		TileSize: s.TileSize(), Tiles: len(s.index), CountBytes: int(s.header.TableWidth),
		Fingerprint: fmt.Sprintf("%016x", s.Fingerprint()),
		TileBytes:   int64(s.header.IndexOffset) - s.header.dataStart(formatOf(s.pruned)),
		FileBytes:   int64(s.header.IndexOffset) + int64(len(s.index))*indexEntrySize,
		Pruned:      s.pruned,
		Threshold:   s.Threshold(), Banded: s.Banded(), Band: s.Band(), NNZ: s.NNZ(),
	}
	for id, e := range s.index {
		t := s.tileOf(id)
		info.DenseBytes += int64(t.Rows) * int64(t.Cols) * int64(info.CountBytes)
		if s.pruned && e.Aux == 0 {
			info.EmptyTiles++
		}
	}
	if n := int64(s.SNPs()); s.pruned && n > 0 {
		info.Density = float64(s.NNZ()) / float64(n*(n+1)/2)
	}
	if c := s.rows; c != nil {
		info.Resident = true
		info.ResidentBytes = 4*int64(len(c.ptr)+len(c.stored)+len(c.col)) + 8*int64(len(c.val))
	}
	return info
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

// At returns the store's statistic for the pair (i, j) — r² from a
// complete store, a pruned store's measure or 0 where the pair was pruned
// (or out of band) — in either order.
func (s *Store) At(i, j int) (float64, error) {
	v, _, err := s.Lookup(i, j)
	return v, err
}

// Lookup is At plus whether the store holds the pair: a complete store
// holds every pair, a pruned one those that passed its predicate, so a
// stored zero is told from a pruned pair.
func (s *Store) Lookup(i, j int) (float64, bool, error) {
	var v [1]float64
	ok, err := s.convert(v[:], i, j, s.Stat().Measure())
	return v[0], ok, err
}

// Cell returns measure m (MeasureD, MeasureR2 or MeasureDPrime) for the
// pair (i, j) of a complete store, in either order.
func (s *Store) Cell(m core.Measure, i, j int) (float64, error) {
	var v [1]float64
	err := s.serves(false)
	if err == nil {
		err = checkMeasure(m)
	}
	if err == nil {
		_, err = s.convert(v[:], i, j, m)
	}
	return v[0], err
}

// Pair returns D, r² and D′ for the pair (i, j) of a complete store, in
// either order, from one tile lookup.
func (s *Store) Pair(i, j int) (d, r2, dprime float64, err error) {
	var v [3]float64
	if err = s.serves(false); err == nil {
		_, err = s.convert(v[:], i, j, core.MeasureD, core.MeasureR2, core.MeasureDPrime)
	}
	return v[0], v[1], v[2], err
}

// convert writes measure ms[k] of the pair (i, j), in either order, to
// out[k], and reports whether the store holds the pair: out is left alone
// where a pruned store does not. A pruned tile with no entry is answered
// from the index alone.
func (s *Store) convert(out []float64, i, j int, ms ...core.Measure) (bool, error) {
	if err := s.checkSNP("i", i); err != nil {
		return false, err
	}
	if err := s.checkSNP("j", j); err != nil {
		return false, err
	}
	i, j = min(i, j), max(i, j)
	nt := s.TileSize()
	ti, tj := i/nt, j/nt
	s.st.bytesServed.Add(8 * uint64(len(ms)))
	if s.pruned && s.entry(ti, tj).Aux == 0 {
		return false, nil
	}
	t, err := s.fetch(ti, tj)
	if err != nil {
		return false, err
	}
	r, c := i-ti*nt, j-tj*nt
	k := r*s.tileDim(tj) + c
	if s.pruned {
		lo, hi := int(t.rowPtr[r]), int(t.rowPtr[r+1])
		if k = lo + sort.Search(hi-lo, func(k int) bool { return int(t.cols[lo+k]) >= c }); k == hi || int(t.cols[k]) != c {
			return false, nil
		}
	}
	for x, m := range ms {
		s.conv.Row(m, out[x:x+1], t.counts[k:k+1], i, j)
	}
	return true, nil
}

// Region materializes the dense (end−start)² r² matrix for SNPs [start,
// end) of a complete store, row-major with both triangles filled: Rect
// over the square.
func (s *Store) Region(start, end int) ([]float64, error) {
	return s.Rect(core.MeasureR2, start, end, start, end)
}

// Rect materializes measure m (MeasureD, MeasureR2 or MeasureDPrime) over
// rows [r0, r1) × columns [c0, c1) of a complete store's symmetric matrix,
// row-major — the payload of the server's region requests, a cluster
// shard's row-restricted ones among them. Each cell is converted from the
// tile orientation that holds it (the store keeps i ≤ j): a tile read
// against the grain converts its own rows, whose pairs are the rectangle's
// transposed, and measures are symmetric in their two SNPs to the bit. A
// square rectangle converts each pair of its upper tiles once and mirrors
// it. The block comes from bufpool.Floats, as core's results do: a caller
// done with it may hand it back there, once.
func (s *Store) Rect(m core.Measure, r0, r1, c0, c1 int) ([]float64, error) {
	if err := s.serves(false); err != nil {
		return nil, err
	}
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
			t, err := s.fetch(ti, tj)
			if err != nil {
				bufpool.Floats.Put(out)
				return nil, err
			}
			counts, cols := t.counts, s.tileDim(tj)
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
	s.st.bytesServed.Add(uint64(len(out)) * 8)
	return out, nil
}

// TopPair is one entry of a Top result.
type TopPair struct {
	I     int     `json:"i"`
	J     int     `json:"j"`
	Value float64 `json:"value"`
}

// Top returns a complete store's k strongest off-diagonal pairs by r²,
// strongest first (ties broken by (I, J)). The per-tile maxima recorded
// at build time prune the scan: tiles whose maximum cannot displace the
// current k-th value are never read.
func (s *Store) Top(k int) ([]TopPair, error) { return s.TopRange(k, 0, s.SNPs()) }

// TopRange is Top restricted to pairs whose smaller index lies in
// [r0, r1) — the ownership rule of a cluster shard. The per-tile maxima
// still prune: a tile's recorded maximum bounds any row subset of it.
func (s *Store) TopRange(k, r0, r1 int) ([]TopPair, error) {
	if err := s.serves(false); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("ldstore: invalid top k=%d", k)
	}
	if n := s.SNPs(); r0 < 0 || r1 <= r0 || r1 > n {
		return nil, fmt.Errorf("ldstore: invalid top row range [%d,%d) of %d SNPs", r0, r1, n)
	}
	order := make([]int, 0, len(s.index))
	for id := range s.index {
		// Only tiles whose row band intersects the window hold owned pairs.
		if t := s.tileOf(id); t.Row0 < r1 && t.Row0+t.Rows > r0 {
			order = append(order, id)
		}
	}
	// A complete tile's aux word is its maximum off-diagonal r².
	maxOff := func(id int) float64 { return math.Float64frombits(s.index[id].Aux) }
	sort.Slice(order, func(a, b int) bool { return maxOff(order[a]) > maxOff(order[b]) })
	h := &topHeap{}
	scratch := make([]float64, s.TileSize())
	for _, id := range order {
		// Strict inequality: a tile whose maximum ties the current k-th
		// value can still hold a pair that wins on the (I, J) tie-break,
		// so only strictly-weaker tiles are pruned.
		if h.Len() == k && maxOff(id) < (*h)[0].Value {
			break
		}
		if math.IsInf(maxOff(id), -1) {
			break // only empty 1×1 diagonal tiles remain
		}
		c := s.tileOf(id)
		t, err := s.fetch(c.TI, c.TJ)
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
			s.conv.Row(core.MeasureR2, row, t.counts[r*c.Cols+from:(r+1)*c.Cols], i, c.Col0+from)
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
		s.st.bytesServed.Add(uint64(len(t.counts)) * 8)
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
