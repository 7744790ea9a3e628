package tilefile

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"

	"ldgemm/internal/bufpool"
)

// Codec is the read side of a tile format: what the container cannot
// know about a tile's bytes. The boundary is per tile — Decode runs once
// per cache miss and its result is what the LRU holds.
type Codec[T any] interface {
	// CheckHeader validates the flags and extension of a header whose
	// prefix already passed the container's own checks.
	CheckHeader(h *Header) error
	// CheckEntry validates one index entry's length and auxiliary word
	// against its tile's shape, before any payload is read. It may
	// normalize e.Aux.
	CheckEntry(h *Header, t Tile, e *Entry) error
	// Decode turns one payload, already CRC-verified and of the indexed
	// length, into the immutable tile value queries walk.
	Decode(h *Header, t Tile, e Entry, payload []byte) (T, error)
}

// Counters are the cumulative read-path counters of one format. The codec
// package owns the instance, so dense and sparse traffic stay separately
// observable; every Reader of that format feeds it.
type Counters struct {
	// TilesRead counts tiles decoded from disk (cache misses that
	// completed a load); BytesRead is their on-disk payload bytes.
	TilesRead atomic.Uint64
	BytesRead atomic.Uint64
	// CacheHits/CacheMisses count tile-cache lookups; Evictions counts
	// tiles dropped by the LRU to admit new ones.
	CacheHits   atomic.Uint64
	CacheMisses atomic.Uint64
	Evictions   atomic.Uint64
}

// HitRate returns hits/(hits+misses), or 0 before the first lookup.
func HitRate(hits, misses uint64) float64 {
	if total := hits + misses; total > 0 {
		return float64(hits) / float64(total)
	}
	return 0
}

// Reader is a validated open tile file plus the LRU of its decoded tiles.
// All methods are safe for concurrent use: tile reads go through ReadAt
// and the LRU is mutex-guarded.
type Reader[T any] struct {
	// Header is the validated file header, Bands the number of tile bands
	// per side, Index the tile entries in on-disk order.
	Header Header
	Bands  int
	Index  []Entry

	// coords maps an index position back to (ti, tj). A genome-scale
	// sparse store has millions of tiles, so it is kept to 8 bytes each;
	// the band count of any file that fits its own index is far below 2³¹.
	coords [][2]int32

	format   *Format
	codec    Codec[T]
	counters *Counters
	r        io.ReaderAt
	closer   io.Closer // nil when opened over a caller-owned reader
	cache    *lru[T]
}

// Open opens the tile file at path.
func Open[T any](path string, f *Format, c Codec[T], cacheTiles int, ctr *Counters) (*Reader[T], error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := file.Stat()
	if err != nil {
		file.Close()
		return nil, err
	}
	r, err := OpenReader(file, fi.Size(), f, c, cacheTiles, ctr)
	if err != nil {
		file.Close()
		return nil, fmt.Errorf("%s: %s: %w", f.Name, path, err)
	}
	r.closer = file
	return r, nil
}

// OpenReader opens a tile file over an arbitrary random-access reader of
// the given size, validating the header and the whole index before any
// query runs: dimensions and tile size must be plausible, the tile count
// must match the geometry, the index must end exactly at end-of-file, and
// every entry must lie inside the tile section and pass the codec's
// length/aux check — so a corrupt or hostile file fails here with an
// error, never with a panic or an unbounded allocation. cacheTiles is the
// LRU capacity in tiles (0 selects the default of 64).
func OpenReader[T any](r io.ReaderAt, size int64, f *Format, c Codec[T], cacheTiles int, ctr *Counters) (*Reader[T], error) {
	if cacheTiles == 0 {
		cacheTiles = 64
	}
	if cacheTiles < 1 {
		return nil, f.errorf("invalid cache capacity %d", cacheTiles)
	}
	hs := int64(f.HeaderSize())
	if size < hs {
		return nil, f.errorf("file of %d bytes is shorter than the %d-byte header", size, hs)
	}
	hb := make([]byte, hs)
	if _, err := r.ReadAt(hb, 0); err != nil {
		return nil, f.errorf("reading header: %w", err)
	}
	h, err := decodeHeader(f, hb)
	if err != nil {
		return nil, err
	}
	if !h.Stat.Valid() {
		return nil, f.errorf("unknown statistic kind %d", uint32(h.Stat))
	}
	if h.SNPs > maxSNPs || h.Samples > maxSamples {
		return nil, f.errorf("implausible dimensions %d×%d", h.SNPs, h.Samples)
	}
	if h.SNPs > 0 && h.Samples == 0 {
		return nil, f.errorf("%d SNPs with zero samples", h.SNPs)
	}
	if err := f.checkTileSize(int64(h.TileSize)); err != nil {
		return nil, err
	}
	if err := c.CheckHeader(&h); err != nil {
		return nil, f.errorf("%w", err)
	}
	n, nt := int(h.SNPs), int(h.TileSize)
	t := bandsFor(n, nt)
	if h.TileCount != uint64(tilesThrough(t, t)) {
		return nil, f.errorf("%d tiles indexed, want %d for %d SNPs at tile size %d",
			h.TileCount, tilesThrough(t, t), n, nt)
	}
	// The index is the last thing in the file; requiring it to end exactly
	// at EOF both rejects truncation and bounds the index allocation by
	// the input size.
	if h.TileCount > uint64(size)/IndexEntrySize {
		return nil, f.errorf("index of %d entries cannot fit a %d-byte file", h.TileCount, size)
	}
	indexBytes := int64(h.TileCount) * IndexEntrySize
	if h.IndexOffset < uint64(hs) || int64(h.IndexOffset) != size-indexBytes {
		return nil, f.errorf("index offset %d inconsistent with file size %d", h.IndexOffset, size)
	}

	rd := &Reader[T]{
		Header: h, Bands: t,
		Index:  make([]Entry, h.TileCount),
		coords: make([][2]int32, 0, h.TileCount),
		format: f, codec: c, counters: ctr, r: r,
		cache: newLRU[T](cacheTiles, ctr),
	}
	for ti := 0; ti < t; ti++ {
		for tj := ti; tj < t; tj++ {
			rd.coords = append(rd.coords, [2]int32{int32(ti), int32(tj)})
		}
	}
	ib := make([]byte, indexBytes)
	if _, err := r.ReadAt(ib, int64(h.IndexOffset)); err != nil {
		return nil, f.errorf("reading index: %w", err)
	}
	for id := range rd.Index {
		e := decodeEntry(ib[id*IndexEntrySize:])
		if e.Offset < uint64(hs) || e.Offset > h.IndexOffset ||
			uint64(e.Length) > h.IndexOffset-e.Offset {
			return nil, f.errorf("tile %d at [%d, +%d) escapes the tile section [%d, %d)",
				id, e.Offset, e.Length, hs, h.IndexOffset)
		}
		if err := c.CheckEntry(&rd.Header, rd.TileAt(id), &e); err != nil {
			return nil, f.errorf("tile %d: %w", id, err)
		}
		rd.Index[id] = e
	}
	return rd, nil
}

// Close releases the underlying file, if the Reader owns one.
func (r *Reader[T]) Close() error {
	if r.closer == nil {
		return nil
	}
	return r.closer.Close()
}

// SNPs returns the dataset's SNP count.
func (r *Reader[T]) SNPs() int { return int(r.Header.SNPs) }

// Samples returns the dataset's sequence count.
func (r *Reader[T]) Samples() int { return int(r.Header.Samples) }

// Stat returns the statistic the store holds.
func (r *Reader[T]) Stat() Stat { return r.Header.Stat }

// TileSize returns NT.
func (r *Reader[T]) TileSize() int { return int(r.Header.TileSize) }

// Fingerprint returns the dataset fingerprint stamped at build time.
func (r *Reader[T]) Fingerprint() uint64 { return r.Header.Fingerprint }

// TileAt returns the position and shape of the tile at index position id.
func (r *Reader[T]) TileAt(id int) Tile {
	c := r.coords[id]
	return tileAt(r.SNPs(), r.TileSize(), int(c[0]), int(c[1]))
}

// Entry returns the index entry of tile (ti, tj), ti ≤ tj: what a query
// can learn about the tile (its length, its auxiliary word) without
// reading it.
func (r *Reader[T]) Entry(ti, tj int) Entry { return r.Index[tileID(r.Bands, ti, tj)] }

// TileBytes returns the total payload bytes of the tile section.
func (r *Reader[T]) TileBytes() int64 {
	return int64(r.Header.IndexOffset) - int64(r.format.HeaderSize())
}

// CheckSNP rejects an SNP index outside the store, naming the argument.
func (r *Reader[T]) CheckSNP(name string, i int) error {
	if i < 0 || i >= r.SNPs() {
		return r.format.errorf("%s=%d outside 0..%d", name, i, r.SNPs()-1)
	}
	return nil
}

// Tile returns the decoded tile (ti, tj), ti ≤ tj: from the LRU on a hit,
// otherwise read, CRC-checked, decoded by the codec, and cached.
func (r *Reader[T]) Tile(ti, tj int) (T, error) {
	id := tileID(r.Bands, ti, tj)
	if t, ok := r.cache.get(id); ok {
		return t, nil
	}
	var zero T
	e := r.Index[id]
	// The payload is dead once Decode returns: codecs copy what they keep,
	// and the decoded tile is what the LRU holds.
	payload := bufpool.Bytes.Get(int(e.Length))
	defer bufpool.Bytes.Put(payload)
	// A zero-length payload (an empty sparse tile) may sit exactly at the
	// end of the tile section, where some ReaderAts report EOF even for
	// an empty read.
	if e.Length > 0 {
		if _, err := r.r.ReadAt(payload, int64(e.Offset)); err != nil {
			return zero, r.format.errorf("reading tile (%d,%d): %w", ti, tj, err)
		}
	}
	if crc := crc32.ChecksumIEEE(payload); crc != e.CRC {
		return zero, r.format.errorf("tile (%d,%d) checksum %08x, want %08x", ti, tj, crc, e.CRC)
	}
	t, err := r.codec.Decode(&r.Header, tileAt(r.SNPs(), r.TileSize(), ti, tj), e, payload)
	if err != nil {
		return zero, r.format.errorf("tile (%d,%d): %w", ti, tj, err)
	}
	r.counters.TilesRead.Add(1)
	r.counters.BytesRead.Add(uint64(len(payload)))
	r.cache.put(id, t)
	return t, nil
}
