package ldstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ldgemm/internal/bufpool"
	"ldgemm/internal/core"
)

// Options configures a Store reader.
type Options struct {
	// CacheTiles is ignored: a store reads its tiles in place, from its
	// mapped file, and keeps no decoded copies. Its last caller is
	// benchmark/serve.go.
	CacheTiles int
}

// Store serves LD from a store of either kind (see the package doc); a
// query its kind does not serve returns an error. All query methods are
// safe for concurrent use: the store's bytes are read-only, and a tile's
// first-touch check is recorded in an atomic bit.
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

	// data is the whole file, mapped (unmap releases it) or read into one
	// buffer; Close sets it to nil under mu, which every query holds for
	// reading. verified has bit id set once tile id passed check.
	mu       sync.RWMutex
	data     []byte
	unmap    func([]byte) error
	verified []atomic.Uint64

	conv   *core.CountConverter
	st     *counters
	pruned bool
	rows   *rowCSR // a pruned store's rows, laid out at open; nil above residentBudget
}

// Open opens the store at path, of either kind. On unix the file is mapped
// read-only, elsewhere read into memory; either way its descriptor is
// closed before Open returns.
func Open(path string, opt Options) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var s *Store
	fi, err := f.Stat()
	if err == nil {
		var data []byte
		var unmap func([]byte) error
		if data, unmap, err = readFile(f, fi.Size()); err == nil {
			if s, err = newStore(data, unmap); err != nil && unmap != nil {
				unmap(data)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("ldstore: %s: %w", path, err)
	}
	return s, nil
}

// OpenReader opens a store over an arbitrary random-access reader of the
// given size, reading it whole into memory; its magic says the kind. The
// header, the allele-count table and the whole index are validated before
// any query runs (see open), a pruned store's entry counts must sum to its
// total with none beyond its band, and a pruned store inside the residency
// budget checks every tile into its row layout (matvec.go) — so a corrupt
// or hostile file fails with an error, here or at a tile's first read,
// never with a panic or an unbounded allocation.
func OpenReader(r io.ReaderAt, size int64, opt Options) (*Store, error) {
	data, err := readAll(r, size)
	if err != nil {
		return nil, err
	}
	return newStore(data, nil)
}

// readAll reads the size bytes of r into one buffer.
func readAll(r io.ReaderAt, size int64) ([]byte, error) {
	if size < 0 || int64(int(size)) != size {
		return nil, errorf("invalid store size %d", size)
	}
	data := make([]byte, size)
	if n, err := r.ReadAt(data, 0); n < len(data) {
		return nil, errorf("reading store: %w", err)
	}
	return data, nil
}

// newStore opens the store whose bytes are data.
func newStore(data []byte, unmap func([]byte) error) (*Store, error) {
	s := &Store{data: data, unmap: unmap, st: &stats[0]}
	if s.pruned = len(data) >= 4 && [4]byte(data[:4]) == ldssFormat.magic; s.pruned {
		s.st = &stats[1]
	}
	err := guard(func() error {
		if err := s.open(data); err != nil {
			return err
		}
		s.conv = core.NewCountConverter(alleleCounts(&s.header), s.Samples())
		if !s.pruned {
			return nil
		}
		var err error
		s.rows, err = s.load()
		return err
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Close releases the store's bytes, unmapping its file, once the queries
// in flight are done; a query after Close returns an error.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data := s.data
	s.data = nil
	if data == nil || s.unmap == nil {
		return nil
	}
	return s.unmap(data)
}

// read runs a query over the store's bytes: it holds them against Close,
// refusing a closed store, and runs the query under guard.
func (s *Store) read(query func() error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.data == nil {
		return errorf("store is closed")
	}
	return guard(query)
}

// guard runs f with a fault in a memory read made a panic
// (debug.SetPanicOnFault) and recovers that panic into an error: a mapped
// store truncated under its reader faults on the pages it lost. Any other
// panic goes on. A goroutine a query starts runs its share under a guard
// of its own.
func guard(f func() error) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			fault, ok := r.(interface{ Addr() uintptr })
			if !ok {
				panic(r)
			}
			err = errorf("reading the store faulted at %#x: was its file truncated under it?", fault.Addr())
		}
	}()
	return f()
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
func (s *Store) convert(out []float64, i, j int, ms ...core.Measure) (held bool, err error) {
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
	err = s.read(func() error {
		if s.pruned && s.entry(ti, tj).Aux == 0 {
			return nil
		}
		t, err := s.fetch(ti, tj)
		if err != nil {
			return err
		}
		r, c := i-ti*nt, j-tj*nt
		k := r*s.tileDim(tj) + c
		if s.pruned {
			lo, hi := t.ptr(r), t.ptr(r+1)
			if k = lo + sort.Search(hi-lo, func(k int) bool { return t.col(lo+k) >= c }); k == hi || t.col(k) != c {
				return nil
			}
		}
		var cnt [1]uint32
		t.row(cnt[:], k)
		for x, m := range ms {
			s.conv.Row(m, out[x:x+1], cnt[:], i, j)
		}
		held = true
		return nil
	})
	return held, err
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
	out := bufpool.Floats.Get((r1 - r0) * (c1 - c0)) // the tiles below cover every cell
	if err := s.read(func() error { return s.rect(out, m, r0, r1, c0, c1) }); err != nil {
		bufpool.Floats.Put(out)
		return nil, err
	}
	s.st.bytesServed.Add(uint64(len(out)) * 8)
	return out, nil
}

// countRows recycles the row of counts a query widens a tile row into.
var countRows bufpool.Pool[uint32]

// rect fills out with Rect's cells.
func (s *Store) rect(out []float64, m core.Measure, r0, r1, c0, c1 int) error {
	w, nt := c1-c0, s.TileSize()
	square := r0 == c0 && r1 == c1
	cnt, scratch := countRows.Get(nt), bufpool.Floats.Get(nt)
	defer countRows.Put(cnt)
	defer bufpool.Floats.Put(scratch)
	for tr := r0 / nt; tr*nt < r1; tr++ {
		for tc := c0 / nt; tc*nt < c1; tc++ {
			if square && tr > tc {
				continue // mirrored from tile (tc, tr)
			}
			ti, tj := min(tr, tc), max(tr, tc)
			t, err := s.fetch(ti, tj)
			if err != nil {
				return err
			}
			cols := s.tileDim(tj)
			iLo, iHi := max(r0, tr*nt), min(r1, tr*nt+s.tileDim(tr))
			jLo, jHi := max(c0, tc*nt), min(c1, tc*nt+s.tileDim(tc))
			if tr > tc {
				// Stored row j holds the pairs (j, i) of columns i.
				row := scratch[:iHi-iLo]
				for j := jLo; j < jHi; j++ {
					s.conv.Row(m, row, t.row(cnt[:len(row)], (j-ti*nt)*cols+iLo-tj*nt), j, iLo)
					for x, v := range row {
						out[(iLo+x-r0)*w+j-c0] = v
					}
				}
				continue
			}
			for i := iLo; i < iHi; i++ {
				row := out[(i-r0)*w+jLo-c0:][:jHi-jLo]
				s.conv.Row(m, row, t.row(cnt[:len(row)], (i-ti*nt)*cols+jLo-tj*nt), i, jLo)
				if square && tr < tc {
					for x, v := range row {
						out[(jLo+x-c0)*w+i-r0] = v
					}
				}
			}
		}
	}
	return nil
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
	var out []TopPair
	err := s.read(func() error {
		var err error
		out, err = s.topRange(k, r0, r1)
		return err
	})
	return out, err
}

// tileOrders and topHeaps recycle topRange's tile ids and its heap.
var (
	tileOrders bufpool.Pool[int]
	topHeaps   bufpool.Pool[core.SignificantPair]
)

// topRange is TopRange's scan.
func (s *Store) topRange(k, r0, r1 int) ([]TopPair, error) {
	order := tileOrders.Get(len(s.index))
	defer tileOrders.Put(order)
	order = order[:0]
	for id := range s.index {
		// Only tiles whose row band intersects the window hold owned pairs.
		if t := s.tileOf(id); t.Row0 < r1 && t.Row0+t.Rows > r0 {
			order = append(order, id)
		}
	}
	// A complete tile's aux word is its maximum off-diagonal r².
	maxOff := func(id int) float64 { return math.Float64frombits(s.index[id].Aux) }
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(maxOff(b), maxOff(a)) })
	pairs := topHeaps.Get(k)
	defer topHeaps.Put(pairs)
	h := core.PairHeap(pairs[:0])
	cnt, scratch := countRows.Get(s.TileSize()), bufpool.Floats.Get(s.TileSize())
	defer countRows.Put(cnt)
	defer bufpool.Floats.Put(scratch)
	for _, id := range order {
		// Strict inequality: a tile whose maximum ties the current k-th
		// value can still hold a pair that wins on the (I, J) tie-break,
		// so only strictly-weaker tiles are pruned.
		if len(h) == k && maxOff(id) < h[0].R2 {
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
			s.conv.Row(core.MeasureR2, row, t.row(cnt[:len(row)], r*c.Cols+from), i, c.Col0+from)
			for col, v := range row {
				if len(h) == k && v < h[0].R2 {
					continue // ranks after every pair kept
				}
				h.Offer(core.SignificantPair{I: i, J: c.Col0 + from + col, R2: v}, k)
			}
		}
		s.st.bytesServed.Add(uint64(c.Rows*c.Cols) * 8)
	}
	h.Sort()
	out := make([]TopPair, len(h))
	for x, p := range h {
		out[x] = TopPair{I: p.I, J: p.J, Value: p.R2}
	}
	return out, nil
}
