// Package tilefile is the one on-disk tile container behind the LD store:
// the upper tile triangle of the SNP×SNP joint counts, each tile an opaque
// checksummed payload behind an offset index, bound to its dataset by a
// fingerprint. The container owns everything the complete (LDTS) and
// pruned (LDSS) formats share — header prefix, tile geometry, index,
// validated open, the read-and-CRC tile fetch behind one LRU, the
// checkpoint/resume protocol, and the single build driver. What a tile's
// bytes mean is a Codec's business: ldstore supplies one for both formats.
//
// File layout (all integers little-endian):
//
//	header: 64-byte prefix + the format's fixed-size extension
//	per-SNP table: SNPs × the prefix's table width bytes (ldstore: allele counts)
//	tile payloads, in index order (row-major over the upper tile triangle)
//	index: one 24-byte entry per tile, ending exactly at end-of-file
//
// See DESIGN.md ("Tile container") for the byte-level tables.
package tilefile

import (
	"encoding/binary"
	"fmt"

	"ldgemm/internal/core"
)

// Stat identifies the statistic a store holds.
type Stat uint32

const (
	// StatR2 is the squared correlation r² (Eq. 2 of the paper).
	StatR2 Stat = 1
	// StatD is the raw disequilibrium coefficient D (Eq. 1).
	StatD Stat = 2
	// StatDPrime is Lewontin's normalized D′.
	StatDPrime Stat = 3
)

// String returns the CLI spelling of the statistic.
func (s Stat) String() string {
	switch s {
	case StatR2:
		return "r2"
	case StatD:
		return "d"
	case StatDPrime:
		return "dprime"
	}
	return fmt.Sprintf("stat(%d)", uint32(s))
}

// Measure maps the statistic to the core measure flag that computes it.
func (s Stat) Measure() core.Measure {
	switch s {
	case StatR2:
		return core.MeasureR2
	case StatD:
		return core.MeasureD
	case StatDPrime:
		return core.MeasureDPrime
	}
	return 0
}

// Valid reports whether s names a statistic the stores can hold.
func (s Stat) Valid() bool { return s == StatR2 || s == StatD || s == StatDPrime }

// Container constants. The header is fixed-size so the index offset can be
// patched in place after the variable-length tile section is written.
const (
	// PrefixSize is the header prefix every format shares; a format's
	// extension follows it.
	PrefixSize = 64
	// IndexEntrySize is the encoded size of one Entry.
	IndexEntrySize = 24

	// maxTableWidth caps the per-SNP table's bytes a SNP, so a hostile
	// header's table size, SNPs × width, stays far inside an int64.
	maxTableWidth = 8

	// Dimension sanity caps: a corrupt or hostile header must not drive an
	// implausible allocation before any payload is validated.
	maxSNPs    = 1 << 31
	maxSamples = 1 << 40

	// MaxTileBytes caps the dense-equivalent size of a single tile
	// (TileSize² float64s): 64 MiB = 2896² float64. It bounds every
	// per-tile allocation on both the build and the read side, and keeps
	// TileSize far inside the uint16 range sparse tile-local columns use.
	MaxTileBytes = 1 << 26
)

// Format names one container format. The codec package that owns the
// format declares exactly one.
type Format struct {
	// Name prefixes error messages: the package that owns the codec.
	Name string
	// Magic opens the file; ManifestMagic marks its checkpoint manifests.
	Magic         [4]byte
	ManifestMagic string
	// Version is the one version of the format this build reads and
	// writes, in the header and in checkpoint manifests alike: a file or a
	// manifest of any other version is refused.
	Version uint32
	// ExtSize is the length of the header extension after the prefix.
	ExtSize int
}

// HeaderSize is the offset of the first tile payload.
func (f *Format) HeaderSize() int { return PrefixSize + f.ExtSize }

func (f *Format) errorf(format string, args ...any) error {
	return fmt.Errorf(f.Name+": "+format, args...)
}

// Header is the decoded file header.
//
// Prefix byte layout:
//
//	off size field
//	  0    4 magic
//	  4    4 version (uint32, Format.Version)
//	  8    4 flags (meaning owned by the codec)
//	 12    4 statistic kind (1 r², 2 D, 3 D′)
//	 16    8 SNPs
//	 24    8 samples
//	 32    4 tile size NT
//	 36    4 per-SNP table width in bytes (0: no table)
//	 40    8 dataset fingerprint (FNV-1a 64 over dims + packed words)
//	 48    8 index offset
//	 56    8 tile count
//	 64    … extension (Format.ExtSize bytes, owned by the codec)
//
// The per-SNP table follows the extension, TableWidth bytes for each SNP;
// what it holds is the codec's business too.
type Header struct {
	Flags       uint32
	Stat        Stat
	SNPs        uint64
	Samples     uint64
	TileSize    uint32
	TableWidth  uint32
	Fingerprint uint64
	IndexOffset uint64
	TileCount   uint64
	Ext         []byte
	// Table is the per-SNP table, SNPs × TableWidth bytes. A build writes
	// zeros until the encoder's FinishHeader fills it in place.
	Table []byte
}

// DataStart is the offset of the first tile payload: past the header and
// the per-SNP table.
func (h *Header) DataStart(f *Format) int64 {
	return int64(f.HeaderSize()) + int64(h.SNPs)*int64(h.TableWidth)
}

// encode writes the header's bytes with the per-SNP table after them to b,
// DataStart bytes long; a Table that is b's own view of it stays put.
func (h *Header) encode(f *Format, b []byte) {
	copy(b[0:4], f.Magic[:])
	binary.LittleEndian.PutUint32(b[4:], f.Version)
	binary.LittleEndian.PutUint32(b[8:], h.Flags)
	binary.LittleEndian.PutUint32(b[12:], uint32(h.Stat))
	binary.LittleEndian.PutUint64(b[16:], h.SNPs)
	binary.LittleEndian.PutUint64(b[24:], h.Samples)
	binary.LittleEndian.PutUint32(b[32:], h.TileSize)
	binary.LittleEndian.PutUint32(b[36:], h.TableWidth)
	binary.LittleEndian.PutUint64(b[40:], h.Fingerprint)
	binary.LittleEndian.PutUint64(b[48:], h.IndexOffset)
	binary.LittleEndian.PutUint64(b[56:], h.TileCount)
	copy(b[PrefixSize:], h.Ext)
	copy(b[f.HeaderSize():], h.Table)
}

func decodeHeader(f *Format, b []byte) (Header, error) {
	var h Header
	if len(b) < f.HeaderSize() {
		return h, f.errorf("short header (%d bytes)", len(b))
	}
	if [4]byte(b[0:4]) != f.Magic {
		return h, f.errorf("bad magic %q", b[0:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != f.Version {
		return h, f.errorf("unsupported version %d", v)
	}
	h.Flags = binary.LittleEndian.Uint32(b[8:])
	h.Stat = Stat(binary.LittleEndian.Uint32(b[12:]))
	h.SNPs = binary.LittleEndian.Uint64(b[16:])
	h.Samples = binary.LittleEndian.Uint64(b[24:])
	h.TileSize = binary.LittleEndian.Uint32(b[32:])
	h.TableWidth = binary.LittleEndian.Uint32(b[36:])
	h.Fingerprint = binary.LittleEndian.Uint64(b[40:])
	h.IndexOffset = binary.LittleEndian.Uint64(b[48:])
	h.TileCount = binary.LittleEndian.Uint64(b[56:])
	h.Ext = b[PrefixSize:f.HeaderSize()]
	return h, nil
}

// checkTileSize is the one tile-size rule, applied to build options,
// file headers and checkpoint manifests alike.
func (f *Format) checkTileSize(nt int64) error {
	if nt < 1 {
		return f.errorf("invalid tile size %d", nt)
	}
	if raw := nt * nt * 8; raw > MaxTileBytes {
		return f.errorf("tile size %d needs %d-byte tiles, above MaxTileBytes (%d)", nt, raw, MaxTileBytes)
	}
	return nil
}

// Entry locates and authenticates one tile payload.
//
// Byte layout (24 bytes): offset uint64, length uint32, crc32 (IEEE) of
// the stored payload uint32, then one 64-bit auxiliary word the codec
// defines (LDTS: the tile's maximum off-diagonal exact r²; LDSS: its
// entry count).
type Entry struct {
	Offset uint64
	Length uint32
	CRC    uint32
	Aux    uint64
}

func (e Entry) encode(b []byte) {
	binary.LittleEndian.PutUint64(b[0:], e.Offset)
	binary.LittleEndian.PutUint32(b[8:], e.Length)
	binary.LittleEndian.PutUint32(b[12:], e.CRC)
	binary.LittleEndian.PutUint64(b[16:], e.Aux)
}

func decodeEntry(b []byte) Entry {
	return Entry{
		Offset: binary.LittleEndian.Uint64(b[0:]),
		Length: binary.LittleEndian.Uint32(b[8:]),
		CRC:    binary.LittleEndian.Uint32(b[12:]),
		Aux:    binary.LittleEndian.Uint64(b[16:]),
	}
}

// Tile-grid geometry. Tiles cover the upper triangle of the SNP×SNP
// matrix: tile (TI, TJ) with TJ ≥ TI holds rows [TI·NT, …) × columns
// [TJ·NT, …), and tiles are ordered row-major over that triangle. What a
// diagonal tile stores (mirrored square or upper triangle) is the codec's
// choice.

// Tile is one tile's position and shape.
type Tile struct {
	TI, TJ     int // band coordinates, TI ≤ TJ
	Row0, Col0 int // global SNP index of the first row and column
	Rows, Cols int
}

// tileAt returns tile (ti, tj) of an n-SNP matrix at tile size nt.
func tileAt(n, nt, ti, tj int) Tile {
	return Tile{TI: ti, TJ: tj, Row0: ti * nt, Col0: tj * nt, Rows: min(nt, n-ti*nt), Cols: min(nt, n-tj*nt)}
}

// Diagonal reports whether the tile sits on the matrix diagonal.
func (t Tile) Diagonal() bool { return t.TI == t.TJ }

// bandsFor returns the number of tile bands covering n SNPs.
func bandsFor(n, nt int) int {
	if n <= 0 {
		return 0
	}
	return (n + nt - 1) / nt
}

// tilesThrough returns the number of tiles in the first `stripes` tile
// rows of a t-band upper triangle: row s holds t−s tiles. The whole
// triangle is tilesThrough(t, t).
func tilesThrough(t, stripes int) int64 {
	s := int64(stripes)
	return s*int64(t) - s*(s-1)/2
}

// tileID maps tile coordinates (ti ≤ tj) to the tile's index position.
func tileID(t, ti, tj int) int64 {
	return tilesThrough(t, ti) + int64(tj-ti)
}
