package ldstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync/atomic"

	"ldgemm/internal/core"
)

// The container's read side: the validated open, the store's geometry, and
// the tile reads. A store's bytes are its whole file, mapped or read into
// one buffer; a tile is read in place, checked the first time a query
// touches it (CRC, counts ≤ N, a pruned tile's CSR structure), and served
// from the file's bytes from then on.

// open validates the store's bytes before any query runs: dimensions and
// tile size must be plausible, the tile count must match the geometry, the
// index must end exactly at end-of-file, and every entry must lie inside
// the tile section and fit its tile's shape — so a corrupt or hostile file
// fails here with an error, never with a panic or an unbounded allocation.
func (s *Store) open(data []byte) error {
	f := formatOf(s.pruned)
	size, hs := int64(len(data)), int64(f.headerSize())
	if size < hs {
		return errorf("file of %d bytes is shorter than the %d-byte header", size, hs)
	}
	h, err := decodeHeader(f, bytes.Clone(data[:hs]))
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
		h.Table = bytes.Clone(data[hs:ds])
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
	s.verified = make([]atomic.Uint64, (h.TileCount+63)/64)
	for ti := 0; ti < t; ti++ {
		for tj := ti; tj < t; tj++ {
			s.coords = append(s.coords, [2]int32{int32(ti), int32(tj)})
		}
	}
	ib := data[h.IndexOffset:]
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

// fetch returns tile (ti, tj), ti ≤ tj, read in place. Its first touch
// checks it (check) and sets its bit in verified; a tile that fails stays
// unset, so every read of it fails alike. Concurrent first touches may
// each check it: the bit is the same either way. A first touch counts as
// a cache miss and a tile read, any later touch as a cache hit.
func (s *Store) fetch(ti, tj int) (tile, error) {
	id := tileID(s.bands, ti, tj)
	e := s.index[id]
	geo, payload := tileAt(s.SNPs(), s.TileSize(), ti, tj), s.data[e.Offset:][:e.Length]
	t := s.view(geo, e, payload)
	word, bit := &s.verified[id/64], uint64(1)<<(id%64)
	if word.Load()&bit != 0 {
		s.st.cacheHits.Add(1)
		return t, nil
	}
	s.st.cacheMisses.Add(1)
	if crc := crc32.ChecksumIEEE(payload); crc != e.CRC {
		return tile{}, errorf("tile (%d,%d) checksum %08x, want %08x", ti, tj, crc, e.CRC)
	}
	if err := s.check(geo, t); err != nil {
		return tile{}, errorf("tile (%d,%d): %w", ti, tj, err)
	}
	s.st.tilesRead.Add(1)
	s.st.bytesRead.Add(uint64(len(payload)))
	word.Or(bit)
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

// tile is one tile's payload, in place in the store's bytes. A complete
// tile's counts are its rows × cols counts row-major, little-endian of
// width bytes each. A pruned tile's are its entries': row r's are counts
// [ptr(r), ptr(r+1)), at the tile-local columns col(k) of the same
// positions, strictly ascending, after the rows+1 row pointers and the
// columns (see csrBytes).
type tile struct {
	width  uint32
	counts []byte
	rowPtr []byte
	cols   []byte
}

// view cuts a payload of the indexed length into its parts.
func (s *Store) view(t Tile, e Entry, payload []byte) tile {
	v := tile{width: s.header.TableWidth, counts: payload}
	if s.pruned && e.Aux > 0 {
		v.rowPtr, v.cols = payload[:(t.Rows+1)*4], payload[(t.Rows+1)*4:][:2*e.Aux]
		v.counts = payload[(t.Rows+1)*4+2*int(e.Aux):]
	}
	return v
}

// ptr returns a pruned tile's row pointer r, col its column k.
func (t *tile) ptr(r int) int { return int(binary.LittleEndian.Uint32(t.rowPtr[4*r:])) }
func (t *tile) col(k int) int { return int(binary.LittleEndian.Uint16(t.cols[2*k:])) }

// rows returns a pruned tile's row count: 0 for an empty tile.
func (t *tile) rows() int { return max(0, len(t.rowPtr)/4-1) }

// row widens the len(dst) counts from the k-th into dst and returns it.
func (t *tile) row(dst []uint32, k int) []uint32 {
	widen(dst, t.counts[k*int(t.width):], t.width)
	return dst
}

// check holds a payload, CRC-verified and of the indexed length, to what
// the readers walk unchecked: no count above N, and a pruned tile in CSR —
// row pointers monotone from 0 to nnz, checked before any column is read,
// then columns in range and strictly ascending per row, a diagonal tile's
// upper-triangular.
func (s *Store) check(t Tile, v tile) error {
	if n := v.rows(); s.pruned && n > 0 {
		for r := 1; r <= n; r++ {
			if v.ptr(r) < v.ptr(r-1) {
				return fmt.Errorf("row %d pointers decrease", r-1)
			}
		}
		if nnz := len(v.cols) / 2; v.ptr(0) != 0 || v.ptr(n) != nnz {
			return fmt.Errorf("row pointers span [%d,%d), want [0,%d)", v.ptr(0), v.ptr(n), nnz)
		}
		for r := 0; r < n; r++ {
			for k := v.ptr(r); k < v.ptr(r+1); k++ {
				if col := v.col(k); col >= t.Cols || (t.Diagonal() && col < r) {
					return fmt.Errorf("row %d holds column %d outside its range", r, col)
				} else if k > v.ptr(r) && col <= v.col(k-1) {
					return fmt.Errorf("row %d columns not ascending", r)
				}
			}
		}
	}
	if top := maxCount(v.counts, v.width); uint64(top) > s.header.Samples {
		return fmt.Errorf("joint count %d of N = %d", top, s.header.Samples)
	}
	return nil
}

// widen decodes len(dst) little-endian counts of width bytes from src,
// narrow ones four to a 64-bit load.
func widen(dst []uint32, src []byte, width uint32) {
	if width == 2 {
		src = src[:2*len(dst)]
		k := 0
		for ; k+4 <= len(dst); k += 4 {
			w, d := binary.LittleEndian.Uint64(src[2*k:]), dst[k:k+4:k+4]
			d[0], d[1], d[2], d[3] = uint32(w&0xffff), uint32(w>>16&0xffff), uint32(w>>32&0xffff), uint32(w>>48)
		}
		for ; k < len(dst); k++ {
			dst[k] = uint32(binary.LittleEndian.Uint16(src[2*k:]))
		}
		return
	}
	src = src[:4*len(dst)]
	for k := range dst {
		dst[k] = binary.LittleEndian.Uint32(src[4*k:])
	}
}

// maxCount returns the largest of the little-endian counts of width bytes
// that fill src.
func maxCount(src []byte, width uint32) uint32 {
	var top uint32
	if width == 2 {
		for k := 0; k+1 < len(src); k += 2 {
			top = max(top, uint32(binary.LittleEndian.Uint16(src[k:])))
		}
		return top
	}
	for k := 0; k+3 < len(src); k += 4 {
		top = max(top, binary.LittleEndian.Uint32(src[k:]))
	}
	return top
}
