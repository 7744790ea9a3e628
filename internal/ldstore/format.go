// Package ldstore is the on-disk tier for precomputed all-pairs LD:
// compute the blocked GEMM once, write what the kernel computes — the
// joint haplotype counts H = GᵀG — to an indexed, checksummed tile file,
// and serve queries from it at cache speed. D, r² and D′ are conversions
// of H (Eq. 1, 2), run by core.CountConverter, the row code of
// core.Matrix's epilogue, so a store serves core.Matrix's bits.
//
// A store is one of two kinds, fixed at build by its predicate (a measure,
// a threshold τ and an optional band |i−j| ≤ W). A complete store ("LDTS"
// v2: τ = 0, no band) holds every tile's counts row-major, a diagonal tile
// its mirrored square, and indexes each tile's maximum off-diagonal exact
// r², Top's pruning bound; it serves points, pairs, rectangles and top-K
// of every measure, as PLINK's precomputed reports and Fabregat-Traver &
// Bientinesi's out-of-core pipelines do. A pruned store ("LDSS" v2) holds
// the counts of the in-band cells whose measure has |v| ≥ τ, selected in
// the fused epilogue of the build's one scan, each tile a tile-local CSR
// block (a diagonal tile its upper triangle, an empty one no payload)
// indexed by its entry count; it serves the sparse operators MatVec and
// Score, as SparseLD/graphld serve banded LD to summary-statistic
// pipelines. At serves both. Each carries the per-SNP derived-allele
// counts after its header, at the count width (2 bytes when N ≤ 65 535,
// else 4), under a CRC-32 in the header extension: the frequencies every
// conversion needs.
//
// Both kinds are one tile container: the upper tile triangle of H, each
// tile a checksummed payload behind an offset index, bound to its dataset
// by a fingerprint, read through one LRU (reader.go) and written by one
// checkpointed build pipeline (build.go, checkpoint.go). File layout (all
// integers little-endian):
//
//	header: 64-byte prefix + the kind's fixed-size extension
//	per-SNP table: SNPs × the count width bytes (the allele counts)
//	tile payloads, in index order (row-major over the upper tile triangle)
//	index: one 24-byte entry per tile, ending exactly at end-of-file
//
// DESIGN.md ("Tile container") has the byte tables.
package ldstore

import (
	"encoding/binary"
	"fmt"

	"ldgemm/internal/core"
)

// Stat identifies a statistic: a complete store serves all three, a
// pruned store the one its predicate selects on.
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

// ParseStat parses the CLI spelling of a statistic kind.
func ParseStat(s string) (Stat, error) {
	for _, st := range []Stat{StatR2, StatD, StatDPrime} {
		if s == st.String() {
			return st, nil
		}
	}
	return 0, fmt.Errorf("ldstore: unknown statistic %q (want r2, d, or dprime)", s)
}

// Container constants. The header is fixed-size so the index offset can be
// patched in place after the variable-length tile section is written.
const (
	// prefixSize is the header prefix both kinds share; a kind's
	// extension follows it.
	prefixSize = 64
	// indexEntrySize is the encoded size of one Entry.
	indexEntrySize = 24
	// formatVersion is the one version of both formats this build reads
	// and writes, in the header and in checkpoint manifests alike: a file
	// or a manifest of any other version is refused.
	formatVersion = 2

	// maxTableWidth caps the per-SNP table's bytes a SNP, so a hostile
	// header's table size, SNPs × width, stays far inside an int64.
	maxTableWidth = 8

	// Dimension sanity caps: a corrupt or hostile header must not drive an
	// implausible allocation before any payload is validated.
	maxSNPs    = 1 << 31
	maxSamples = 1 << 40

	// maxTileBytes caps the dense-equivalent size of a single tile
	// (TileSize² float64s): 64 MiB = 2896² float64. It bounds every
	// per-tile allocation on both the build and the read side, and keeps
	// TileSize far inside the uint16 range pruned tile-local columns use.
	maxTileBytes = 1 << 26
)

// fileFormat is what tells the two kinds' files apart: the magic that
// opens the file, the one that marks its checkpoint manifests, and the
// length of the header extension after the prefix.
type fileFormat struct {
	magic         [4]byte
	manifestMagic string
	extSize       int
}

// The two formats. A pruned store's manifests keep the sparse tier's
// magic, so a version-1 manifest is refused for its version.
var (
	ldtsFormat = fileFormat{magic: [4]byte{'L', 'D', 'T', 'S'}, manifestMagic: "ldstore-checkpoint", extSize: 8}
	ldssFormat = fileFormat{magic: [4]byte{'L', 'D', 'S', 'S'}, manifestMagic: "ldsparse-checkpoint", extSize: 32}
)

// formatOf returns the format of a store of the given kind.
func formatOf(pruned bool) *fileFormat {
	if pruned {
		return &ldssFormat
	}
	return &ldtsFormat
}

// headerSize is the offset of the per-SNP table.
func (f *fileFormat) headerSize() int { return prefixSize + f.extSize }

func errorf(format string, args ...any) error {
	return fmt.Errorf("ldstore: "+format, args...)
}

// Header is the decoded file header.
//
// Prefix byte layout:
//
//	off size field
//	  0    4 magic
//	  4    4 version (uint32, formatVersion)
//	  8    4 flags (flagBanded, pruned stores only)
//	 12    4 statistic kind (1 r², 2 D, 3 D′)
//	 16    8 SNPs
//	 24    8 samples
//	 32    4 tile size NT
//	 36    4 per-SNP table width in bytes: the count width
//	 40    8 dataset fingerprint (FNV-1a 64 over dims + packed words)
//	 48    8 index offset
//	 56    8 tile count
//	 64    … extension (extSize bytes; see the extension layout below)
//
// The per-SNP table follows the extension, TableWidth bytes for each SNP:
// the allele counts.
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
	// zeros until its seal fills it in place.
	Table []byte
}

// dataStart is the offset of the first tile payload: past the header and
// the per-SNP table.
func (h *Header) dataStart(f *fileFormat) int64 {
	return int64(f.headerSize()) + int64(h.SNPs)*int64(h.TableWidth)
}

// encode writes the header's bytes with the per-SNP table after them to b,
// dataStart bytes long; a Table that is b's own view of it stays put.
func (h *Header) encode(f *fileFormat, b []byte) {
	copy(b[0:4], f.magic[:])
	binary.LittleEndian.PutUint32(b[4:], formatVersion)
	binary.LittleEndian.PutUint32(b[8:], h.Flags)
	binary.LittleEndian.PutUint32(b[12:], uint32(h.Stat))
	binary.LittleEndian.PutUint64(b[16:], h.SNPs)
	binary.LittleEndian.PutUint64(b[24:], h.Samples)
	binary.LittleEndian.PutUint32(b[32:], h.TileSize)
	binary.LittleEndian.PutUint32(b[36:], h.TableWidth)
	binary.LittleEndian.PutUint64(b[40:], h.Fingerprint)
	binary.LittleEndian.PutUint64(b[48:], h.IndexOffset)
	binary.LittleEndian.PutUint64(b[56:], h.TileCount)
	copy(b[prefixSize:], h.Ext)
	copy(b[f.headerSize():], h.Table)
}

func decodeHeader(f *fileFormat, b []byte) (Header, error) {
	var h Header
	if len(b) < f.headerSize() {
		return h, errorf("short header (%d bytes)", len(b))
	}
	if [4]byte(b[0:4]) != f.magic {
		return h, errorf("bad magic %q", b[0:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != formatVersion {
		return h, errorf("unsupported version %d", v)
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
	h.Ext = b[prefixSize:f.headerSize()]
	return h, nil
}

// Header extension layout (offsets within it; the file offset is 64
// more). The first 8 bytes are both kinds'; a pruned store's predicate and
// total follow.
//
//	 0  4 CRC-32 (IEEE) of the allele-count table
//	 4  4 reserved, zero
//	 8  8 τ, float64 bits (entries keep |v| ≥ τ)
//	16  8 band width W (meaningful only when flag bit 0 is set)
//	24  8 stored entries (nnz)
const (
	extTableCRC  = 0
	extThreshold = 8
	extBand      = 16
	extNNZ       = 24

	// flagBanded marks a pruned store built under a |i−j| ≤ band window:
	// cells outside it are absent because they were never computed.
	flagBanded = 1 << 0
	// maxBand caps a header's band width at the SNP cap.
	maxBand = 1 << 31
)

// checkTileSize is the one tile-size rule, applied to build options,
// file headers and checkpoint manifests alike.
func checkTileSize(nt int64) error {
	if nt < 1 {
		return errorf("invalid tile size %d", nt)
	}
	if raw := nt * nt * 8; raw > maxTileBytes {
		return errorf("tile size %d needs %d-byte tiles, above the %d-byte cap", nt, raw, maxTileBytes)
	}
	return nil
}

// Entry locates and authenticates one tile payload.
//
// Byte layout (24 bytes): offset uint64, length uint32, crc32 (IEEE) of
// the stored payload uint32, then one 64-bit auxiliary word (LDTS: the
// tile's maximum off-diagonal exact r²; LDSS: its entry count).
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
// [TJ·NT, …), and tiles are ordered row-major over that triangle.

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

// tile is one decoded tile. A complete store's counts are its rows × cols
// row-major. A pruned store's are its entries': row r's are
// counts[rowPtr[r]:rowPtr[r+1]], at the tile-local columns of the same
// positions of cols, strictly ascending. Tiles are immutable once decoded.
type tile struct {
	counts []uint32
	rowPtr []uint32
	cols   []uint16
}

// csrBytes is a pruned tile's payload length: row pointers, then a column
// and a count of width bytes per entry; a tile with none stores nothing.
func csrBytes(rows int, nnz int64, width uint32) int64 {
	if nnz == 0 {
		return 0
	}
	return int64(rows+1)*4 + nnz*int64(2+width)
}
