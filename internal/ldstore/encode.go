package ldstore

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"unsafe"

	"ldgemm/internal/core"
)

// stripe is one tile row as the scan handed it over, in place: the
// encoder's input. A complete build's is counts, the joint counts from
// each row's diagonal to N with each tile's maximum exact r²
// (core.CountStripe); a pruned build's is kept, the row-CSR of the joint
// counts of the delivered cells with |v| ≥ τ (core.KeptStripe). The buffers
// are pooled and never cleared, so the other one holds whatever an earlier
// build left. The stripe holds SNP rows [i0, i0+rows).
type stripe struct {
	i0, rows int
	counts   core.CountStripe
	kept     core.KeptStripe
}

// tileEncoder is the write side of one store kind. The boundary is per
// tile: the build hands over the whole stripe and a tile's coordinates,
// and gets one payload back with its index auxiliary word. The payload
// lives in scratch the encoder reuses, or in the stripe itself; the build
// consumes it before the next call. A diagonal tile is always the first
// tile encoded from its stripe, and the encoder may complete the stripe in
// place for it.
type tileEncoder interface {
	encodeTile(s *stripe, t Tile) (payload []byte, aux uint64)
}

// finishHeader writes the allele-count table and its checksum once every
// tile is indexed, and stamps a pruned store's total entry count, summed
// from the index — on a resumed build the reloaded entries carry the
// earlier stripes' share — which it returns (0 for a complete store).
func (b *builder) finishHeader() int64 {
	h := &b.hdr
	for i, a := range b.alleles {
		putCount(h.Table, i, a, h.TableWidth)
	}
	binary.LittleEndian.PutUint32(h.Ext[extTableCRC:], crc32.ChecksumIEEE(h.Table))
	if !b.pruned {
		return 0
	}
	var nnz uint64
	for _, e := range b.index {
		nnz += e.Aux
	}
	binary.LittleEndian.PutUint64(h.Ext[extNNZ:], nnz)
	return int64(nnz)
}

// putCount writes count c as the k-th little-endian count of width bytes
// in b.
func putCount(b []byte, k int, c uint32, width uint32) {
	if width == 2 {
		binary.LittleEndian.PutUint16(b[2*k:], uint16(c))
	} else {
		binary.LittleEndian.PutUint32(b[4*k:], c)
	}
}

// encoder is the complete store's write side, with the scratch a
// big-endian host reuses across tiles.
type encoder struct {
	width uint32 // count bytes
	raw   []byte
}

// encodeTile serializes tile t from the stripe's counts — on a
// little-endian host the tile's own bytes, as the stripe holds each tile as
// its payload's rows (core.CountStripe.Tile) — with the tile's maximum r²
// the scan folded as its auxiliary word. A diagonal tile's upper triangle
// is first mirrored into its lower one (H is symmetric).
func (enc *encoder) encodeTile(s *stripe, t Tile) ([]byte, uint64) {
	c := &s.counts
	k := t.TJ - t.TI
	off, _ := c.Tile(k)
	var payload []byte
	if enc.width == 2 {
		payload = tileBytes(&enc.raw, c.C16[off:][:t.Rows*t.Cols], t)
	} else {
		payload = tileBytes(&enc.raw, c.C32[off:][:t.Rows*t.Cols], t)
	}
	return payload, math.Float64bits(c.TileMax[k])
}

// tileBytes returns tile t's counts, rows × cols of them row after row, as
// little-endian bytes: the tile's own memory on a little-endian host, else
// written into raw.
func tileBytes[T uint16 | uint32](raw *[]byte, tile []T, t Tile) []byte {
	if t.Diagonal() {
		for r := 1; r < t.Rows; r++ {
			for c := 0; c < r; c++ {
				tile[r*t.Cols+c] = tile[c*t.Cols+r]
			}
		}
	}
	size := int(unsafe.Sizeof(T(0)))
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(tile))), len(tile)*size)
	}
	if cap(*raw) < len(tile)*size {
		*raw = make([]byte, len(tile)*size)
	}
	out := (*raw)[:len(tile)*size]
	for c, v := range tile {
		for b := range size {
			out[c*size+b] = byte(v >> (8 * b))
		}
	}
	return out
}

// hostLittleEndian: a count in memory is already its LDTS bytes, so the
// encoder hands over a tile's memory as its payload; a big-endian host
// writes it byte by byte.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// keptEncoder is the pruned store's write side: the build's scan hands it
// only the counts of the cells with |v| ≥ τ, each stripe in row-CSR.
type keptEncoder struct {
	width uint32 // count bytes
	// cur is each stripe row's first survivor no tile has taken yet; left
	// counts the survivors past all of them.
	cur  []int
	left int
	raw  []byte
}

// encodeTile cuts tile t's survivors from the kept stripe as a tile-local
// CSR block and returns it with the entry count. Each stripe row holds its
// survivors in ascending columns from its diagonal, so the diagonal tile,
// the stripe's first, keeps its upper triangle, and each tile after it
// takes the survivors below its end column from every row's cursor. A
// tile with none — every far-off-band tile — costs only its index entry.
func (enc *keptEncoder) encodeTile(s *stripe, t Tile) ([]byte, uint64) {
	k := &s.kept
	if t.Diagonal() {
		enc.cur = append(enc.cur[:0], k.RowPtr[:t.Rows]...)
		enc.left = k.RowPtr[t.Rows]
	}
	if enc.left == 0 {
		return nil, 0
	}
	end := t.Col0 + t.Cols
	nnz := 0
	for r, c := range enc.cur[:t.Rows] {
		stop := k.RowPtr[r+1]
		for c < stop && int(k.Cols[c]) < end {
			c++
		}
		nnz += c - enc.cur[r]
	}
	if nnz == 0 {
		return nil, 0
	}
	enc.left -= nnz
	length := int(csrBytes(t.Rows, int64(nnz), enc.width))
	if cap(enc.raw) < length {
		enc.raw = make([]byte, length)
	}
	raw := enc.raw[:length]
	cols := raw[(t.Rows+1)*4:]
	counts := cols[nnz*2:]
	at := 0
	binary.LittleEndian.PutUint32(raw, 0)
	for r, c := range enc.cur[:t.Rows] {
		stop := k.RowPtr[r+1]
		for ; c < stop && int(k.Cols[c]) < end; c++ {
			binary.LittleEndian.PutUint16(cols[at*2:], uint16(int(k.Cols[c])-t.Col0))
			putCount(counts, at, k.Counts[c], enc.width)
			at++
		}
		enc.cur[r] = c
		binary.LittleEndian.PutUint32(raw[(r+1)*4:], uint32(at))
	}
	return raw, uint64(nnz)
}
