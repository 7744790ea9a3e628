// Package ldsparse is the on-disk sparse LD tier: threshold-pruned CSR
// tiles of one statistic, built in a single pass from the fused GEMM
// epilogue and served through sparse operators (R·v matvec, score
// statistics) instead of dense dumps.
//
// The motivation follows the SparseLD/graphld line of work: genome-scale
// LD matrices are effectively banded — the overwhelming majority of
// |r²| values sit below any threshold a consumer cares about — and the
// high-value downstream workloads are GWAS summary-statistic
// computations (LD-matrix × vector products, Σ r²·χ² score aggregates),
// not dense region dumps. The build prunes at |v| ≥ τ inside the fused
// epilogue: the scan keeps only each row run's survivors and hands every
// stripe over as a row-CSR of them, so the other cells are never stored,
// not even in a stripe buffer, and the store shrinks by orders of
// magnitude.
//
// The file ("LDSS") is a tilefile container with a 32-byte header
// extension (threshold, band width, total entry count). The index
// auxiliary word is the tile's entry count; a tile with no surviving
// entry has a zero-length payload, and every other payload is a
// tile-local CSR block:
//
//	rowPtr  (rows+1) × uint32   entry offsets per tile row
//	cols    nnz × uint16        tile-local column indices, ascending
//	vals    nnz × float64       statistic values
//
// Unlike LDTS, diagonal tiles keep only their upper triangle (local row
// ≤ col) — sparse consumers apply symmetry themselves, so mirrored
// storage would only double the bytes. This package is that codec plus
// the sparse operators; the container itself (header, index, cache,
// checkpointed build) is internal/tilefile. See DESIGN.md ("Tile
// container") for the byte-level tables.
package ldsparse

import (
	"encoding/binary"
	"fmt"
	"math"

	"ldgemm/internal/tilefile"
)

// Stat is the statistic kind: the sparse tier holds the same three
// measures as the dense tier and shares the CLI spellings.
type Stat = tilefile.Stat

const (
	StatR2     = tilefile.StatR2
	StatD      = tilefile.StatD
	StatDPrime = tilefile.StatDPrime
)

var format = tilefile.Format{
	Name:          "ldsparse",
	Magic:         [4]byte{'L', 'D', 'S', 'S'},
	ManifestMagic: "ldsparse-checkpoint",
	ExtSize:       extSize,
}

const (
	// Header extension layout (offsets within the extension; file offset
	// is 64 more):
	//
	//	 0  8 pruning threshold τ (float64 bits; entries keep |v| ≥ τ)
	//	 8  8 band width W (meaningful only when flag bit 0 is set)
	//	16  8 total surviving entries (nnz)
	//	24  8 reserved (zero)
	extSize      = 32
	extThreshold = 0
	extBand      = 8
	extNNZ       = 16

	// flagBanded marks a store built under a |i−j| ≤ band window: cells
	// outside the band are absent because they were never computed, not
	// because they failed the threshold.
	flagBanded = 1 << 0

	// csrEntryBytes is the per-entry payload cost: one uint16 column
	// plus one float64 value.
	csrEntryBytes = 10

	// maxBand caps a header's band width at the SNP cap.
	maxBand = 1 << 31
)

// extWord reads one 64-bit field of the header extension.
func extWord(h *tilefile.Header, off int) uint64 {
	return binary.LittleEndian.Uint64(h.Ext[off:])
}

// csrBytes returns the payload length of a tile holding nnz entries over
// `rows` tile rows; empty tiles are stored as zero bytes.
func csrBytes(rows int, nnz int64) int64 {
	if nnz == 0 {
		return 0
	}
	return int64(rows+1)*4 + nnz*csrEntryBytes
}

// csrTile is one decoded tile-local CSR block. rowPtr has the tile's row
// count + 1 entries; cols are tile-local and strictly ascending within
// each row; diagonal tiles hold only local row ≤ col. Tiles are immutable
// once decoded.
type csrTile struct {
	rowPtr []uint32
	cols   []uint16
	vals   []float64
}

// codec is the LDSS read side.
type codec struct{}

func (codec) CheckHeader(h *tilefile.Header) error {
	if tau := math.Float64frombits(extWord(h, extThreshold)); math.IsNaN(tau) || tau < 0 {
		return fmt.Errorf("invalid threshold %v", tau)
	}
	band := extWord(h, extBand)
	if h.Flags&flagBanded != 0 {
		if band > maxBand {
			return fmt.Errorf("implausible band width %d", band)
		}
	} else if band != 0 {
		return fmt.Errorf("band width %d without the banded flag", band)
	}
	return nil
}

// CheckEntry requires the payload length to be exactly the CSR size of
// the declared entry count, which itself must fit the tile: full
// rectangle off the diagonal, upper triangle (diagonal included) on it.
func (codec) CheckEntry(_ *tilefile.Header, t tilefile.Tile, e *tilefile.Entry) error {
	cells := int64(t.Rows) * int64(t.Cols)
	if t.Diagonal() {
		cells = int64(t.Rows) * int64(t.Rows+1) / 2
	}
	if e.Aux > uint64(cells) {
		return fmt.Errorf("declares %d entries, above its %d cells", e.Aux, cells)
	}
	if want := csrBytes(t.Rows, int64(e.Aux)); int64(e.Length) != want {
		return fmt.Errorf("has %d payload bytes, want %d for %d entries", e.Length, want, e.Aux)
	}
	return nil
}

// Decode unpacks and validates one CSR block. The invariants — rowPtr
// monotone from 0 to nnz, columns in range and strictly ascending per
// row, diagonal tiles upper-triangular — are enforced here so every
// consumer can walk the arrays without bounds anxiety. The whole
// row-pointer array is checked before any column is touched: a pointer
// past nnz would otherwise index cols out of range.
func (codec) Decode(_ *tilefile.Header, t tilefile.Tile, e tilefile.Entry, payload []byte) (*csrTile, error) {
	rows, nnz := t.Rows, int(e.Aux)
	tile := &csrTile{rowPtr: make([]uint32, rows+1)}
	if nnz == 0 {
		return tile, nil
	}
	for k := range tile.rowPtr {
		tile.rowPtr[k] = binary.LittleEndian.Uint32(payload[k*4:])
		if k > 0 && tile.rowPtr[k] < tile.rowPtr[k-1] {
			return nil, fmt.Errorf("row %d pointers decrease", k-1)
		}
	}
	if tile.rowPtr[0] != 0 || tile.rowPtr[rows] != uint32(nnz) {
		return nil, fmt.Errorf("row pointers span [%d,%d), want [0,%d)", tile.rowPtr[0], tile.rowPtr[rows], nnz)
	}
	tile.cols = make([]uint16, nnz)
	tile.vals = make([]float64, nnz)
	colOff := (rows + 1) * 4
	valOff := colOff + nnz*2
	for k := 0; k < nnz; k++ {
		tile.cols[k] = binary.LittleEndian.Uint16(payload[colOff+k*2:])
		tile.vals[k] = math.Float64frombits(binary.LittleEndian.Uint64(payload[valOff+k*8:]))
	}
	for r := 0; r < rows; r++ {
		lo, hi := tile.rowPtr[r], tile.rowPtr[r+1]
		for k := lo; k < hi; k++ {
			c := int(tile.cols[k])
			if c >= t.Cols || (t.Diagonal() && c < r) {
				return nil, fmt.Errorf("row %d holds column %d outside its range", r, c)
			}
			if k > lo && c <= int(tile.cols[k-1]) {
				return nil, fmt.Errorf("row %d columns not ascending", r)
			}
		}
	}
	return tile, nil
}

// encoder is the LDSS write side, with the scratch it reuses across tiles.
// It is a tilefile.KeptEncoder: the build's scan hands it only the cells
// with |v| ≥ τ, each stripe in row-CSR.
type encoder struct {
	tau float64
	// cur is each stripe row's cursor into the kept stripe: the first
	// survivor no tile has taken yet; left counts the survivors past all
	// of them.
	cur  []int
	left int
	raw  []byte
}

// Threshold is τ: the scan keeps a cell iff |v| ≥ τ.
func (enc *encoder) Threshold() float64 { return enc.tau }

// EncodeTile cuts tile t's survivors from the kept stripe as a tile-local
// CSR block and returns it with the entry count. The stripe holds each
// row's survivors in ascending column order from its diagonal to its band
// edge, so the diagonal tile — the stripe's first — keeps only its upper
// triangle, and the tiles of a stripe, encoded in column order, each take
// the survivors below their end column from every row's cursor. Tiles with
// no survivor — every far-off-band tile of a banded build — cost zero
// payload bytes, only their index entry, and once a stripe's survivors are
// all taken its remaining tiles read nothing.
func (enc *encoder) EncodeTile(s *tilefile.Stripe, t tilefile.Tile) ([]byte, uint64, error) {
	k := &s.Kept
	if t.Diagonal() {
		enc.cur = append(enc.cur[:0], k.RowPtr[:t.Rows]...)
		enc.left = k.RowPtr[t.Rows]
	}
	if enc.left == 0 {
		return nil, 0, nil
	}
	end := t.Col0 + t.Cols
	ptr := (t.Rows + 1) * 4 // the row pointers' bytes; columns follow
	nnz := 0
	for r, c := range enc.cur[:t.Rows] {
		stop := k.RowPtr[r+1]
		for c < stop && int(k.Cols[c]) < end {
			c++
		}
		nnz += c - enc.cur[r]
	}
	if nnz == 0 {
		return nil, 0, nil
	}
	enc.left -= nnz
	length := int(csrBytes(t.Rows, int64(nnz)))
	if cap(enc.raw) < length {
		enc.raw = make([]byte, length)
	}
	raw := enc.raw[:length]
	cols, vals := raw[ptr:], raw[ptr+nnz*2:]
	at := 0
	binary.LittleEndian.PutUint32(raw, 0)
	for r, c := range enc.cur[:t.Rows] {
		stop := k.RowPtr[r+1]
		for ; c < stop && int(k.Cols[c]) < end; c++ {
			binary.LittleEndian.PutUint16(cols[at*2:], uint16(int(k.Cols[c])-t.Col0))
			binary.LittleEndian.PutUint64(vals[at*8:], math.Float64bits(k.Vals[c]))
			at++
		}
		enc.cur[r] = c
		binary.LittleEndian.PutUint32(raw[(r+1)*4:], uint32(at))
	}
	return raw, uint64(nnz), nil
}

// FinishHeader stamps the store's total entry count, summed from the
// index — on a resumed build the reloaded entries carry the earlier
// stripes' share.
func (*encoder) FinishHeader(h *tilefile.Header, index []tilefile.Entry) {
	var nnz uint64
	for _, e := range index {
		nnz += e.Aux
	}
	binary.LittleEndian.PutUint64(h.Ext[extNNZ:], nnz)
}
