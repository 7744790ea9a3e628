package ldstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"ldgemm/internal/bufpool"
	"ldgemm/internal/core"
)

// The container's read side: the validated open, the store's geometry, and
// the read-and-CRC tile fetch behind the LRU. Decode runs once per cache
// miss and its result is what the LRU holds.

// open validates the file behind s.r of the given size before any query
// runs: dimensions and tile size must be plausible, the tile count must
// match the geometry, the index must end exactly at end-of-file, and every
// entry must lie inside the tile section and fit its tile's shape — so a
// corrupt or hostile file fails here with an error, never with a panic or
// an unbounded allocation. cacheTiles is the LRU capacity in tiles (0
// selects the default of 64).
func (s *Store) open(size int64, cacheTiles int) error {
	if cacheTiles == 0 {
		cacheTiles = 64
	}
	if cacheTiles < 1 {
		return errorf("invalid cache capacity %d", cacheTiles)
	}
	f := formatOf(s.pruned)
	hs := int64(f.headerSize())
	if size < hs {
		return errorf("file of %d bytes is shorter than the %d-byte header", size, hs)
	}
	hb := make([]byte, hs)
	if _, err := s.r.ReadAt(hb, 0); err != nil {
		return errorf("reading header: %w", err)
	}
	h, err := decodeHeader(f, hb)
	if err != nil {
		return err
	}
	if !h.Stat.Valid() {
		return errorf("unknown statistic kind %d", uint32(h.Stat))
	}
	if h.SNPs > maxSNPs || h.Samples > maxSamples {
		return errorf("implausible dimensions %d×%d", h.SNPs, h.Samples)
	}
	if h.SNPs > 0 && h.Samples == 0 {
		return errorf("%d SNPs with zero samples", h.SNPs)
	}
	if err := checkTileSize(int64(h.TileSize)); err != nil {
		return err
	}
	if h.TableWidth > maxTableWidth {
		return errorf("per-SNP table of %d bytes a SNP", h.TableWidth)
	}
	ds := h.dataStart(f)
	if ds > size {
		return errorf("file of %d bytes is shorter than its %d-byte header and per-SNP table", size, ds)
	}
	if h.TableWidth > 0 {
		h.Table = make([]byte, ds-hs)
		if _, err := s.r.ReadAt(h.Table, hs); err != nil {
			return errorf("reading per-SNP table: %w", err)
		}
	}
	s.header = h
	if err := s.checkHeader(); err != nil {
		return err
	}
	n, nt := int(h.SNPs), int(h.TileSize)
	t := bandsFor(n, nt)
	if h.TileCount != uint64(tilesThrough(t, t)) {
		return errorf("%d tiles indexed, want %d for %d SNPs at tile size %d",
			h.TileCount, tilesThrough(t, t), n, nt)
	}
	// The index is the last thing in the file; requiring it to end exactly
	// at EOF both rejects truncation and bounds the index allocation by
	// the input size.
	if h.TileCount > uint64(size)/indexEntrySize {
		return errorf("index of %d entries cannot fit a %d-byte file", h.TileCount, size)
	}
	indexBytes := int64(h.TileCount) * indexEntrySize
	if h.IndexOffset < uint64(ds) || int64(h.IndexOffset) != size-indexBytes {
		return errorf("index offset %d inconsistent with file size %d", h.IndexOffset, size)
	}

	s.bands = t
	s.index = make([]Entry, h.TileCount)
	s.coords = make([][2]int32, 0, h.TileCount)
	s.cache = newLRU(cacheTiles, s.st)
	for ti := 0; ti < t; ti++ {
		for tj := ti; tj < t; tj++ {
			s.coords = append(s.coords, [2]int32{int32(ti), int32(tj)})
		}
	}
	ib := make([]byte, indexBytes)
	if _, err := s.r.ReadAt(ib, int64(h.IndexOffset)); err != nil {
		return errorf("reading index: %w", err)
	}
	for id := range s.index {
		e := decodeEntry(ib[id*indexEntrySize:])
		if e.Offset < uint64(ds) || e.Offset > h.IndexOffset ||
			uint64(e.Length) > h.IndexOffset-e.Offset {
			return errorf("tile %d at [%d, +%d) escapes the tile section [%d, %d)",
				id, e.Offset, e.Length, ds, h.IndexOffset)
		}
		if err := s.checkEntry(s.tileOf(id), &e); err != nil {
			return errorf("tile %d: %w", id, err)
		}
		s.index[id] = e
	}
	return nil
}

// SNPs returns the dataset's SNP count.
func (s *Store) SNPs() int { return int(s.header.SNPs) }

// Samples returns the dataset's sequence count.
func (s *Store) Samples() int { return int(s.header.Samples) }

// Stat returns the statistic the store holds: a complete store's r², a
// pruned store's measure.
func (s *Store) Stat() Stat { return s.header.Stat }

// TileSize returns NT.
func (s *Store) TileSize() int { return int(s.header.TileSize) }

// Fingerprint returns the dataset fingerprint stamped at build time.
func (s *Store) Fingerprint() uint64 { return s.header.Fingerprint }

// tileOf returns the position and shape of the tile at index position id.
func (s *Store) tileOf(id int) Tile {
	c := s.coords[id]
	return tileAt(s.SNPs(), s.TileSize(), int(c[0]), int(c[1]))
}

// entry returns the index entry of tile (ti, tj), ti ≤ tj: what a query
// can learn about the tile (its length, its auxiliary word) without
// reading it.
func (s *Store) entry(ti, tj int) Entry { return s.index[tileID(s.bands, ti, tj)] }

// checkSNP rejects an SNP index outside the store, naming the argument.
func (s *Store) checkSNP(name string, i int) error {
	if i < 0 || i >= s.SNPs() {
		return errorf("%s=%d outside 0..%d", name, i, s.SNPs()-1)
	}
	return nil
}

// fetch returns the decoded tile (ti, tj), ti ≤ tj: from the LRU on a hit,
// otherwise read, CRC-checked, decoded, and cached.
func (s *Store) fetch(ti, tj int) (tile, error) {
	id := tileID(s.bands, ti, tj)
	if t, ok := s.cache.get(id); ok {
		return t, nil
	}
	e := s.index[id]
	// The payload is dead once decode returns: the decoded tile copies
	// what it keeps, and it is what the LRU holds.
	payload := bufpool.Bytes.Get(int(e.Length))
	defer bufpool.Bytes.Put(payload)
	// A zero-length payload (an empty pruned tile) may sit exactly at the
	// end of the tile section, where some ReaderAts report EOF even for
	// an empty read.
	if e.Length > 0 {
		if _, err := s.r.ReadAt(payload, int64(e.Offset)); err != nil {
			return tile{}, errorf("reading tile (%d,%d): %w", ti, tj, err)
		}
	}
	if crc := crc32.ChecksumIEEE(payload); crc != e.CRC {
		return tile{}, errorf("tile (%d,%d) checksum %08x, want %08x", ti, tj, crc, e.CRC)
	}
	t, err := s.decode(tileAt(s.SNPs(), s.TileSize(), ti, tj), e, payload)
	if err != nil {
		return tile{}, errorf("tile (%d,%d): %w", ti, tj, err)
	}
	s.st.tilesRead.Add(1)
	s.st.bytesRead.Add(uint64(len(payload)))
	s.cache.put(id, t)
	return t, nil
}

// checkHeader holds the header to what a build writes: a complete store's
// r² (the measure of its index maxima and of Top) and no flags, a pruned
// store's valid predicate; the count width N calls for, and an allele-count
// table whose CRC matches and whose every entry is at most N.
func (s *Store) checkHeader() error {
	h := &s.header
	if h.Flags&^flagBanded != 0 || (!s.pruned && h.Flags != 0) {
		return errorf("unknown flags %#x", h.Flags)
	}
	if !s.pruned && h.Stat != StatR2 {
		return errorf("statistic %v, want r2", h.Stat)
	}
	if h.Samples > math.MaxUint32 {
		return errorf("%d samples: joint counts past 32 bits", h.Samples)
	}
	if w := core.CountBytes(int(min(h.Samples, math.MaxUint16+1))); h.TableWidth != uint32(w) {
		return errorf("counts are %d bytes wide, want %d for N = %d", h.TableWidth, w, h.Samples)
	}
	le := binary.LittleEndian
	if le.Uint32(h.Ext[extTableCRC+4:]) != 0 {
		return errorf("reserved extension bytes set")
	}
	if crc := crc32.ChecksumIEEE(h.Table); crc != le.Uint32(h.Ext[extTableCRC:]) {
		return errorf("allele-count table checksum %08x, want %08x", crc, le.Uint32(h.Ext[extTableCRC:]))
	}
	for i, a := range alleleCounts(h) {
		if uint64(a) > h.Samples {
			return errorf("SNP %d has %d derived alleles of N = %d", i, a, h.Samples)
		}
	}
	if !s.pruned {
		return nil
	}
	if tau := math.Float64frombits(le.Uint64(h.Ext[extThreshold:])); math.IsNaN(tau) || tau < 0 {
		return errorf("invalid threshold %v", tau)
	}
	if band := le.Uint64(h.Ext[extBand:]); h.Flags&flagBanded == 0 && band != 0 {
		return errorf("band width %d without the banded flag", band)
	} else if band > maxBand {
		return errorf("implausible band width %d", band)
	}
	return nil
}

// alleleCounts decodes the per-SNP table of a header checkHeader passed.
func alleleCounts(h *Header) []uint32 {
	a := make([]uint32, len(h.Table)/int(h.TableWidth))
	widen(a, h.Table, h.TableWidth)
	return a
}

// checkEntry holds a complete tile's payload to its rows × cols counts,
// a pruned one's to the CSR size of its entry count, which must fit the
// tile: its rectangle, or on the diagonal its upper triangle. It runs
// before any payload is read, and maps a complete tile's NaN maximum to
// −Inf.
func (s *Store) checkEntry(t Tile, e *Entry) error {
	cells := int64(t.Rows) * int64(t.Cols)
	want := cells * int64(s.header.TableWidth)
	if s.pruned {
		if t.Diagonal() {
			cells = int64(t.Rows) * int64(t.Rows+1) / 2
		}
		if e.Aux > uint64(cells) {
			return fmt.Errorf("declares %d entries, above its %d cells", e.Aux, cells)
		}
		want = csrBytes(t.Rows, int64(e.Aux), s.header.TableWidth)
	} else if math.IsNaN(math.Float64frombits(e.Aux)) {
		e.Aux = math.Float64bits(math.Inf(-1))
	}
	if int64(e.Length) != want {
		return fmt.Errorf("payload has %d bytes, want %d", e.Length, want)
	}
	return nil
}

// decode widens a payload, already CRC-verified and of the indexed length,
// into the tile's counts, refusing any above N, and holds a pruned tile to
// CSR — row pointers monotone from 0 to nnz, checked before any column is
// read, then columns in range and strictly ascending per row, a diagonal
// tile's upper-triangular — so consumers walk it unchecked.
func (s *Store) decode(t Tile, e Entry, payload []byte) (tile, error) {
	var tl tile
	n := t.Rows * t.Cols
	if s.pruned {
		n = int(e.Aux)
		tl.rowPtr = make([]uint32, t.Rows+1)
		if n == 0 {
			return tl, nil
		}
		for k := range tl.rowPtr {
			tl.rowPtr[k] = binary.LittleEndian.Uint32(payload[k*4:])
			if k > 0 && tl.rowPtr[k] < tl.rowPtr[k-1] {
				return tl, fmt.Errorf("row %d pointers decrease", k-1)
			}
		}
		if tl.rowPtr[0] != 0 || tl.rowPtr[t.Rows] != uint32(n) {
			return tl, fmt.Errorf("row pointers span [%d,%d), want [0,%d)", tl.rowPtr[0], tl.rowPtr[t.Rows], n)
		}
		payload = payload[(t.Rows+1)*4:]
		tl.cols = make([]uint16, n)
		for r := 0; r < t.Rows; r++ {
			for k := tl.rowPtr[r]; k < tl.rowPtr[r+1]; k++ {
				tl.cols[k] = binary.LittleEndian.Uint16(payload[k*2:])
				if col := int(tl.cols[k]); col >= t.Cols || (t.Diagonal() && col < r) {
					return tl, fmt.Errorf("row %d holds column %d outside its range", r, col)
				} else if k > tl.rowPtr[r] && tl.cols[k] <= tl.cols[k-1] {
					return tl, fmt.Errorf("row %d columns not ascending", r)
				}
			}
		}
		payload = payload[n*2:]
	}
	tl.counts = make([]uint32, n)
	if top := widen(tl.counts, payload, s.header.TableWidth); uint64(top) > s.header.Samples {
		return tl, fmt.Errorf("joint count %d of N = %d", top, s.header.Samples)
	}
	return tl, nil
}

// widen decodes len(dst) little-endian counts of width bytes from src and
// returns the largest.
func widen(dst []uint32, src []byte, width uint32) uint32 {
	var top uint32
	if width == 2 {
		src = src[:2*len(dst)]
		for k := range dst {
			c := uint32(src[2*k]) | uint32(src[2*k+1])<<8
			dst[k], top = c, max(top, c)
		}
		return top
	}
	src = src[:4*len(dst)]
	for k := range dst {
		c := binary.LittleEndian.Uint32(src[4*k:])
		dst[k], top = c, max(top, c)
	}
	return top
}
