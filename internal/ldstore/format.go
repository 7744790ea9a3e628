// Package ldstore is the dense on-disk tier for precomputed all-pairs LD:
// compute the blocked GEMM once, then serve point, region, top-K, and
// banded queries from an indexed, checksummed tile file at cache speed.
//
// The motivation follows Fabregat-Traver & Bientinesi's out-of-core GWAS
// pipelines and PLINK's precomputed LD reports: the paper's kernel makes
// the n² result cheap to *produce*, and tiling it to disk makes it cheap
// to *serve* — one build, millions of reads.
//
// The file ("LDTS", version 2) stores what the kernel computes, the joint
// haplotype counts H = GᵀG, not a statistic: D, r² and D′ are all
// conversions of H (Eq. 1, 2), so one store serves every measure, bit for
// bit what core.Matrix computes. Each tile payload is its rows×cols counts
// row-major, each count 2 bytes when N ≤ 65 535 and 4 otherwise (the
// header's per-SNP table width); diagonal tiles store their full mirrored
// square so point and region reads never have to transpose. The per-SNP
// table after the header holds each SNP's derived-allele count, at the same
// width, under a CRC-32 in the header extension: the frequencies every
// conversion needs. The index auxiliary word is the tile's maximum
// off-diagonal exact r² — the pruning bound that lets top-K queries skip
// cold tiles. A reader converts a tile's rows with core.CountConverter, the
// row code of core.Matrix's epilogue, and its LRU holds counts tiles. This
// package is that codec plus the query operators; the container itself
// (header, index, cache, checkpointed build) is internal/tilefile. See
// DESIGN.md ("Tile container") for the byte-level tables.
package ldstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"ldgemm/internal/core"
	"ldgemm/internal/tilefile"
)

// Stat identifies a statistic: a store serves all three.
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

var format = tilefile.Format{
	Name:          "ldstore",
	Magic:         [4]byte{'L', 'D', 'T', 'S'},
	ManifestMagic: "ldstore-checkpoint",
	Version:       2,
	ExtSize:       extSize,
}

// Header extension layout (8 bytes, after the 64-byte prefix): the CRC-32
// (IEEE) of the per-SNP table, then 4 reserved bytes, zero.
const (
	extTableCRC = 0
	extSize     = 8
)

// codec is the LDTS read side: a decoded tile is its counts, row-major,
// widened to uint32 for the conversion row code.
type codec struct{}

// CheckHeader holds the header to what a build writes: no flags, r² (the
// measure of the index maxima and of Top), the count width N calls for,
// and an allele-count table whose CRC matches and whose every entry is at
// most N.
func (codec) CheckHeader(h *tilefile.Header) error {
	if h.Flags != 0 {
		return fmt.Errorf("unknown flags %#x", h.Flags)
	}
	if h.Stat != StatR2 {
		return fmt.Errorf("statistic %v, want r2", h.Stat)
	}
	if h.Samples > math.MaxUint32 {
		return fmt.Errorf("%d samples: joint counts past 32 bits", h.Samples)
	}
	if w := core.CountBytes(int(min(h.Samples, math.MaxUint16+1))); h.TableWidth != uint32(w) {
		return fmt.Errorf("counts are %d bytes wide, want %d for N = %d", h.TableWidth, w, h.Samples)
	}
	if binary.LittleEndian.Uint32(h.Ext[extTableCRC+4:]) != 0 {
		return fmt.Errorf("reserved extension bytes set")
	}
	if crc := crc32.ChecksumIEEE(h.Table); crc != binary.LittleEndian.Uint32(h.Ext[extTableCRC:]) {
		return fmt.Errorf("allele-count table checksum %08x, want %08x", crc, binary.LittleEndian.Uint32(h.Ext[extTableCRC:]))
	}
	for i, a := range alleleCounts(h) {
		if uint64(a) > h.Samples {
			return fmt.Errorf("SNP %d has %d derived alleles of N = %d", i, a, h.Samples)
		}
	}
	return nil
}

// alleleCounts decodes the per-SNP table of a header CheckHeader passed,
// or whose table the builder wrote.
func alleleCounts(h *tilefile.Header) []uint32 {
	a := make([]uint32, len(h.Table)/int(h.TableWidth))
	for i := range a {
		if h.TableWidth == 2 {
			a[i] = uint32(binary.LittleEndian.Uint16(h.Table[2*i:]))
		} else {
			a[i] = binary.LittleEndian.Uint32(h.Table[4*i:])
		}
	}
	return a
}

func (codec) CheckEntry(h *tilefile.Header, t tilefile.Tile, e *tilefile.Entry) error {
	if raw := int64(t.Rows) * int64(t.Cols) * int64(h.TableWidth); int64(e.Length) != raw {
		return fmt.Errorf("payload has %d bytes, want %d", e.Length, raw)
	}
	if math.IsNaN(math.Float64frombits(e.Aux)) {
		e.Aux = math.Float64bits(math.Inf(-1))
	}
	return nil
}

// Decode widens the tile's counts, refusing any above N.
func (codec) Decode(h *tilefile.Header, t tilefile.Tile, _ tilefile.Entry, payload []byte) ([]uint32, error) {
	counts := make([]uint32, t.Rows*t.Cols)
	var top uint32
	if h.TableWidth == 2 {
		src := payload[:2*len(counts)]
		for k := range counts {
			c := uint32(src[2*k]) | uint32(src[2*k+1])<<8
			counts[k], top = c, max(top, c)
		}
	} else {
		src := payload[:4*len(counts)]
		for k := range counts {
			c := binary.LittleEndian.Uint32(src[4*k:])
			counts[k], top = c, max(top, c)
		}
	}
	if uint64(top) > h.Samples {
		return nil, fmt.Errorf("joint count %d of N = %d", top, h.Samples)
	}
	return counts, nil
}

// encoder is the LDTS write side, with the scratch it reuses across tiles.
type encoder struct {
	width   int // count bytes
	alleles []uint32
	raw     []byte
}

// Alleles keeps the allele counts for the header's table.
func (enc *encoder) Alleles(a []uint32) { enc.alleles = a }

// EncodeTile serializes tile t from the stripe's counts, and returns the
// tile's maximum r² the scan folded as its auxiliary word. For the
// diagonal tile it first mirrors the upper triangle into the stripe's
// lower one (both halves live in the same tile row; H is symmetric), so
// the stored square is complete.
func (enc *encoder) EncodeTile(s *tilefile.Stripe, t tilefile.Tile) ([]byte, uint64, error) {
	c := &s.Counts
	need := t.Rows * t.Cols * enc.width
	if cap(enc.raw) < need {
		enc.raw = make([]byte, need)
	}
	enc.raw = enc.raw[:need]
	if enc.width == 2 {
		tileBytes(enc.raw, c.C16, c.Width, t.Col0-c.I0, t)
	} else {
		tileBytes(enc.raw, c.C32, c.Width, t.Col0-c.I0, t)
	}
	return enc.raw, math.Float64bits(c.TileMax[t.TJ-t.TI]), nil
}

// tileBytes writes tile t — rows 0… of a stripe of row stride width, from
// stripe column col — to dst as little-endian counts.
func tileBytes[T uint16 | uint32](dst []byte, stripe []T, width, col int, t tilefile.Tile) {
	if t.Diagonal() {
		for r := 1; r < t.Rows; r++ {
			for c := 0; c < r; c++ {
				stripe[r*width+c] = stripe[c*width+r]
			}
		}
	}
	size := int(unsafe.Sizeof(T(0)))
	for r := 0; r < t.Rows; r++ {
		row := stripe[r*width+col:][:t.Cols]
		out := dst[r*t.Cols*size:][:t.Cols*size]
		if hostLittleEndian {
			copy(out, unsafe.Slice((*byte)(unsafe.Pointer(&row[0])), len(out)))
			continue
		}
		for c, v := range row {
			for b := range size {
				out[c*size+b] = byte(v >> (8 * b))
			}
		}
	}
}

// hostLittleEndian: a count in memory is already its LDTS bytes, so the
// encoder moves whole tile rows with copy; a big-endian host writes them
// byte by byte.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// FinishHeader writes the allele-count table and its checksum.
func (enc *encoder) FinishHeader(h *tilefile.Header, _ []tilefile.Entry) {
	h.Table = make([]byte, len(enc.alleles)*enc.width)
	for i, a := range enc.alleles {
		if enc.width == 2 {
			binary.LittleEndian.PutUint16(h.Table[2*i:], uint16(a))
		} else {
			binary.LittleEndian.PutUint32(h.Table[4*i:], a)
		}
	}
	binary.LittleEndian.PutUint32(h.Ext[extTableCRC:], crc32.ChecksumIEEE(h.Table))
}
