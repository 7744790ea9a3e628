// Package ldstore is the dense on-disk tier for precomputed all-pairs LD:
// compute the blocked GEMM once, then serve point, region, top-K, and
// banded queries from an indexed, checksummed tile file at cache speed.
//
// The motivation follows Fabregat-Traver & Bientinesi's out-of-core GWAS
// pipelines and PLINK's precomputed LD reports: the paper's kernel makes
// the n² result cheap to *produce*, and tiling it to disk makes it cheap
// to *serve* — one build, millions of reads.
//
// The file ("LDTS") is a tilefile container with no header extension.
// Each tile payload is its rows×cols float64 values row-major, optionally
// DEFLATE-compressed (header flag bit 0); diagonal tiles store their full
// mirrored square so point and region reads never have to transpose. The
// index auxiliary word is the tile's maximum off-diagonal value — the
// pruning bound that lets top-K queries skip cold tiles. This package is
// that codec plus the query operators; the container itself (header,
// index, cache, checkpointed build) is internal/tilefile. See DESIGN.md
// ("Tile container") for the byte-level tables.
package ldstore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"

	"ldgemm/internal/bufpool"
	"ldgemm/internal/tilefile"
)

// Stat identifies the statistic a store holds.
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
}

// flagCompressed marks per-tile DEFLATE compression.
const flagCompressed = 1 << 0

// codec is the LDTS read side: a decoded tile is its values, row-major.
type codec struct{}

func (codec) CheckHeader(*tilefile.Header) error { return nil }

func (codec) CheckEntry(h *tilefile.Header, t tilefile.Tile, e *tilefile.Entry) error {
	raw := int64(t.Rows) * int64(t.Cols) * 8
	if h.Flags&flagCompressed != 0 {
		// DEFLATE worst case is a whisker over the input; anything
		// bigger than raw plus slack cannot be a legitimate tile.
		if int64(e.Length) > raw+raw/100+64 {
			return fmt.Errorf("compressed payload of %d bytes exceeds plausible bound for %d raw bytes", e.Length, raw)
		}
	} else if int64(e.Length) != raw {
		return fmt.Errorf("payload has %d bytes, want %d", e.Length, raw)
	}
	if math.IsNaN(math.Float64frombits(e.Aux)) {
		e.Aux = math.Float64bits(math.Inf(-1))
	}
	return nil
}

func (codec) Decode(h *tilefile.Header, t tilefile.Tile, _ tilefile.Entry, payload []byte) ([]float64, error) {
	rawLen := t.Rows * t.Cols * 8
	raw := payload
	if h.Flags&flagCompressed != 0 {
		fr := flate.NewReader(bytes.NewReader(payload))
		defer fr.Close()
		raw = bufpool.Bytes.Get(rawLen) // dead once vals holds it
		defer bufpool.Bytes.Put(raw)
		if _, err := io.ReadFull(fr, raw); err != nil {
			return nil, fmt.Errorf("decompressing: %w", err)
		}
		var extra [1]byte
		if m, _ := fr.Read(extra[:]); m != 0 {
			return nil, fmt.Errorf("decompresses past its declared %d bytes", rawLen)
		}
	}
	vals := make([]float64, rawLen/8)
	if hostLittleEndian {
		copy(floatBytes(vals), raw)
		return vals, nil
	}
	for k := range vals {
		vals[k] = math.Float64frombits(binary.LittleEndian.Uint64(raw[k*8:]))
	}
	return vals, nil
}

// hostLittleEndian: a float64 in memory is already its LDTS bytes, so the
// codec moves whole tile rows with copy in both directions; a big-endian
// host converts value by value.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes views v's backing array as bytes, in host order.
func floatBytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

// encoder is the LDTS write side, with the scratch it reuses across tiles.
type encoder struct {
	raw  []byte
	comp bytes.Buffer
	fw   *flate.Writer // nil unless compressing
}

func newEncoder(compress bool) *encoder {
	enc := &encoder{}
	if compress {
		// Fixed level, and the writer is reset per tile, so payloads are
		// deterministic: resumed builds converge to the same bytes.
		enc.fw, _ = flate.NewWriter(&enc.comp, flate.DefaultCompression)
	}
	return enc
}

// EncodeTile serializes tile t from the stripe. For the diagonal tile it
// first mirrors the lower triangle into the stripe (both halves live in
// the same tile row), so the stored square is complete.
func (enc *encoder) EncodeTile(s *tilefile.Stripe, t tilefile.Tile) ([]byte, uint64, error) {
	if t.Diagonal() {
		for r := 1; r < s.Rows; r++ {
			for c := 0; c < r; c++ {
				s.Vals[r*s.Width+c] = s.Vals[c*s.Width+r]
			}
		}
	}
	if need := t.Rows * t.Cols * 8; cap(enc.raw) < need {
		enc.raw = make([]byte, need)
	} else {
		enc.raw = enc.raw[:need]
	}
	colLo := t.Col0 - s.I0
	maxOff := math.Inf(-1)
	for r := 0; r < t.Rows; r++ {
		src := s.Vals[r*s.Width+colLo : r*s.Width+colLo+t.Cols]
		dst := enc.raw[r*t.Cols*8 : (r+1)*t.Cols*8]
		if hostLittleEndian {
			copy(dst, floatBytes(src))
		} else {
			for c, v := range src {
				binary.LittleEndian.PutUint64(dst[c*8:], math.Float64bits(v))
			}
		}
		// The bound is over off-diagonal cells: a diagonal tile's row r
		// skips its own column.
		if t.Diagonal() {
			maxOff = rowMax(rowMax(maxOff, src[:r]), src[r+1:])
		} else {
			maxOff = rowMax(maxOff, src)
		}
	}
	payload := enc.raw
	if enc.fw != nil {
		enc.comp.Reset()
		enc.fw.Reset(&enc.comp)
		if _, err := enc.fw.Write(enc.raw); err != nil {
			return nil, 0, err
		}
		if err := enc.fw.Close(); err != nil {
			return nil, 0, err
		}
		payload = enc.comp.Bytes()
	}
	return payload, math.Float64bits(maxOff), nil
}

// rowMax folds row into the running maximum m. NaN compares false and
// never wins; of equal values (−0 and +0) the first seen stays, which the
// stored bits depend on.
func rowMax(m float64, row []float64) float64 {
	for _, v := range row {
		if v > m {
			m = v
		}
	}
	return m
}

func (*encoder) FinishHeader(*tilefile.Header, []tilefile.Entry) {}
