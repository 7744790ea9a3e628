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
// conversion needs. The container (header, index, cache, checkpointed
// build) is internal/tilefile; DESIGN.md ("Tile container") has the byte
// tables.
package ldstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"ldgemm/internal/core"
	"ldgemm/internal/tilefile"
)

// Stat identifies a statistic: a complete store serves all three, a
// pruned store the one its predicate selects on.
type Stat = tilefile.Stat

const (
	StatR2     = tilefile.StatR2
	StatD      = tilefile.StatD
	StatDPrime = tilefile.StatDPrime
)

// ParseStat parses the CLI spelling of a statistic kind.
func ParseStat(s string) (Stat, error) {
	for _, st := range []Stat{StatR2, StatD, StatDPrime} {
		if s == st.String() {
			return st, nil
		}
	}
	return 0, fmt.Errorf("ldstore: unknown statistic %q (want r2, d, or dprime)", s)
}

// The two formats. A pruned store's manifests keep the sparse tier's
// magic, so a version-1 manifest is refused for its version.
var (
	format = tilefile.Format{
		Name: "ldstore", Magic: [4]byte{'L', 'D', 'T', 'S'},
		ManifestMagic: "ldstore-checkpoint", Version: 2, ExtSize: 8,
	}
	prunedFormat = tilefile.Format{
		Name: "ldstore", Magic: [4]byte{'L', 'D', 'S', 'S'},
		ManifestMagic: "ldsparse-checkpoint", Version: 2, ExtSize: 32,
	}
)

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

// codec is the read side of both formats.
type codec struct{ pruned bool }

// CheckHeader holds the header to what a build writes: a complete store's
// r² (the measure of its index maxima and of Top) and no flags, a pruned
// store's valid predicate; the count width N calls for, and an allele-count
// table whose CRC matches and whose every entry is at most N.
func (c codec) CheckHeader(h *tilefile.Header) error {
	if h.Flags&^flagBanded != 0 || (!c.pruned && h.Flags != 0) {
		return fmt.Errorf("unknown flags %#x", h.Flags)
	}
	if !c.pruned && h.Stat != StatR2 {
		return fmt.Errorf("statistic %v, want r2", h.Stat)
	}
	if h.Samples > math.MaxUint32 {
		return fmt.Errorf("%d samples: joint counts past 32 bits", h.Samples)
	}
	if w := core.CountBytes(int(min(h.Samples, math.MaxUint16+1))); h.TableWidth != uint32(w) {
		return fmt.Errorf("counts are %d bytes wide, want %d for N = %d", h.TableWidth, w, h.Samples)
	}
	le := binary.LittleEndian
	if le.Uint32(h.Ext[extTableCRC+4:]) != 0 {
		return fmt.Errorf("reserved extension bytes set")
	}
	if crc := crc32.ChecksumIEEE(h.Table); crc != le.Uint32(h.Ext[extTableCRC:]) {
		return fmt.Errorf("allele-count table checksum %08x, want %08x", crc, le.Uint32(h.Ext[extTableCRC:]))
	}
	for i, a := range alleleCounts(h) {
		if uint64(a) > h.Samples {
			return fmt.Errorf("SNP %d has %d derived alleles of N = %d", i, a, h.Samples)
		}
	}
	if !c.pruned {
		return nil
	}
	if tau := math.Float64frombits(le.Uint64(h.Ext[extThreshold:])); math.IsNaN(tau) || tau < 0 {
		return fmt.Errorf("invalid threshold %v", tau)
	}
	if band := le.Uint64(h.Ext[extBand:]); h.Flags&flagBanded == 0 && band != 0 {
		return fmt.Errorf("band width %d without the banded flag", band)
	} else if band > maxBand {
		return fmt.Errorf("implausible band width %d", band)
	}
	return nil
}

// alleleCounts decodes the per-SNP table of a header CheckHeader passed,
// or whose table the builder wrote.
func alleleCounts(h *tilefile.Header) []uint32 {
	a := make([]uint32, len(h.Table)/int(h.TableWidth))
	widen(a, h.Table, h.TableWidth)
	return a
}

// CheckEntry holds a complete tile's payload to its rows × cols counts,
// a pruned one's to the CSR size of its entry count, which must fit the
// tile: its rectangle, or on the diagonal its upper triangle.
func (c codec) CheckEntry(h *tilefile.Header, t tilefile.Tile, e *tilefile.Entry) error {
	cells := int64(t.Rows) * int64(t.Cols)
	want := cells * int64(h.TableWidth)
	if c.pruned {
		if t.Diagonal() {
			cells = int64(t.Rows) * int64(t.Rows+1) / 2
		}
		if e.Aux > uint64(cells) {
			return fmt.Errorf("declares %d entries, above its %d cells", e.Aux, cells)
		}
		want = csrBytes(t.Rows, int64(e.Aux), h.TableWidth)
	} else if math.IsNaN(math.Float64frombits(e.Aux)) {
		e.Aux = math.Float64bits(math.Inf(-1))
	}
	if int64(e.Length) != want {
		return fmt.Errorf("payload has %d bytes, want %d", e.Length, want)
	}
	return nil
}

// Decode widens the tile's counts, refusing any above N, and holds a pruned
// tile to CSR — row pointers monotone from 0 to nnz, checked before any
// column is read, then columns in range and strictly ascending per row, a
// diagonal tile's upper-triangular — so consumers walk it unchecked.
func (c codec) Decode(h *tilefile.Header, t tilefile.Tile, e tilefile.Entry, payload []byte) (tile, error) {
	var tl tile
	n := t.Rows * t.Cols
	if c.pruned {
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
	if top := widen(tl.counts, payload, h.TableWidth); uint64(top) > h.Samples {
		return tl, fmt.Errorf("joint count %d of N = %d", top, h.Samples)
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
