package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"ldgemm/internal/bufpool"
)

// The float payloads. Three 200 bodies — the region matrix and the two
// sparse operators' vectors — are almost entirely one array of floats, and
// they have two spellings, both written here.
//
// JSON, for clients: encoding/json's output for the same struct, byte for
// byte,
//
//	head array "}\n"
//
// where head is every other field in declaration order plus the array's
// key, the array is the payload's last field, there is no whitespace
// anywhere and exactly one trailing newline, and every number is spelled as
// encoding/json spells it (the shortest decimal that round-trips; exponent
// form below 1e-6 and from 1e21, its e-07 cleaned up to e-7).
//
// Raw, for a coordinator (Accept: application/octet-stream): the same head,
// then each float as 8 little-endian bytes, row-major, and nothing more. A
// strip crosses the shard hop as bits, and the coordinator spells the merged
// answer once, through this encoder (internal/cluster), so a float is
// formatted by exactly one process whichever tier answers.

// FloatPayload is a 200 payload that ends in a float array.
type FloatPayload interface {
	// AppendHead appends the payload's JSON up to the array: every other
	// field and the array's key.
	AppendHead(b []byte) []byte
	// appendArray appends the array as JSON.
	appendArray(b []byte) ([]byte, error)
	// values is the array's floats, row-major.
	values() []float64
}

const payloadTail = "}\n"

// OctetStream is the media type of a raw float payload.
const OctetStream = "application/octet-stream"

// payloadCap is the buffer a payload is encoded into: room for the longest
// spelling of every float.
func payloadCap(p FloatPayload) int { return 160 + len(p.values())*(maxFloatLen+1) }

// encodeFloatPayload appends head + array + tail to b, which has payloadCap
// bytes of room.
func encodeFloatPayload(b []byte, p FloatPayload) ([]byte, error) {
	b, err := p.appendArray(p.AppendHead(b))
	return append(b, payloadTail...), err
}

// appendRaw appends head + the floats' little-endian bits to b. A float JSON
// cannot spell is refused here too, with appendFloat's error, so a node
// answers a query in both spellings or in neither, and fails alike.
func appendRaw(b []byte, p FloatPayload) ([]byte, error) {
	b = p.AppendHead(b)
	for _, f := range p.values() {
		if !finite(f) {
			_, err := appendFloat(nil, f)
			return b, err
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b, nil
}

// ReadRaw reads a raw reply into p, the payload it should be: body must be
// exactly p's head, then 8 bytes for each of p's floats, each finite, and p's
// floats are overwritten with them. Anything else is an error, and leaves
// p's floats holding whatever was read so far.
func ReadRaw(body []byte, p FloatPayload) error {
	head := p.AppendHead(make([]byte, 0, 128)) // a head is about 80 bytes
	dst := p.values()
	if want := len(head) + 8*len(dst); len(body) != want {
		return fmt.Errorf("raw reply is %d bytes, want %d: %s and %d floats", len(body), want, head, len(dst))
	}
	if !bytes.HasPrefix(body, head) {
		return fmt.Errorf("raw reply does not open with %s", head)
	}
	for i := range dst {
		f := math.Float64frombits(binary.LittleEndian.Uint64(body[len(head)+8*i:]))
		if !finite(f) {
			return fmt.Errorf("raw reply holds %v", f)
		}
		dst[i] = f
	}
	return nil
}

// finite reports whether f is neither NaN nor ±Inf: whether JSON spells it.
func finite(f float64) bool { return math.Float64bits(f)>>52&0x7ff != 0x7ff }

func (r RegionResponse) AppendHead(b []byte) []byte {
	b = appendIntField(append(b, '{'), "start", r.Start, false)
	b = appendIntField(b, "end", r.End, false)
	b = appendString(append(b, `,"measure":`...), r.Measure)
	b = appendIntField(b, "row_start", r.RowStart, true)
	b = appendIntField(b, "row_end", r.RowEnd, true)
	if r.Partial {
		b = append(b, `,"partial":true`...)
	}
	return append(b, `,"values":`...)
}

// flatRegion is a region payload: RegionResponse's envelope (its Values
// unset) over the matrix as the executor produced it, rows × (End − Start)
// floats row-major, so no row needs a slice header of its own. A
// coordinator's merged answer may name null windows, counted from its first
// row: the rows of lost strips, spelled null, whose floats are not read.
type flatRegion struct {
	RegionResponse
	vals []float64
	null []Window
}

func (r flatRegion) appendArray(b []byte) ([]byte, error) {
	return appendMatrix(b, r.vals, r.End-r.Start, r.null)
}
func (r flatRegion) values() []float64 { return r.vals }

// Stacked is a coordinator's region answer over rows, merged from its
// strips: vals holds the rows × (End − Start) floats row-major, and each row
// of a null window (counted from rows.Lo) is a lost strip's, spelled null
// under partial: true.
func (q RegionQuery) Stacked(rows Window, vals []float64, null []Window) FloatPayload {
	r := flatRegion{RegionResponse: q.Response(rows), vals: vals, null: null}
	r.Partial = len(null) > 0
	return r
}

// appendMatrix appends the row-major matrix vals of width columns as an
// array of rows, null for a row inside a null window, and a square of at
// least two rows with none null through appendSquare.
func appendMatrix(b []byte, vals []float64, width int, null []Window) (_ []byte, err error) {
	n := len(vals) / width
	if n == width && n > 1 && len(null) == 0 {
		return appendSquare(b, vals, n)
	}
	b = append(b, '[')
rows:
	for i := range n {
		if i > 0 {
			b = append(b, ',')
		}
		for _, w := range null {
			if w.Lo <= i && i < w.Hi {
				b = append(b, "null"...)
				continue rows
			}
		}
		if b, err = appendFloats(b, vals[i*width:][:width]); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// appendSquare spells each distinct value of an n × n reply, row-major in
// vals, once: an LD region over its own rows is symmetric, so cell (i, j)
// below the diagonal usually holds the bits of cell (j, i), and then the
// bytes already written for (j, i) are copied. The bits are compared cell by
// cell, so a square of anything else — asymmetric, or holding a value
// appendFloat refuses — is spelled, or refused, as a row window is.
func appendSquare(b []byte, vals []float64, n int) (_ []byte, err error) {
	// spelled[j*n+i], i < j, is where cell (i, j) sits in b: offset<<8 |
	// length. Row j reads only what rows before it wrote, so the scratch is
	// never cleared.
	spelled := spelledPool.Get(n * n)
	defer spelledPool.Put(spelled)
	b = append(b, '[')
	for i := range n {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, f := range vals[i*n:][:n] {
			if j > 0 {
				b = append(b, ',')
			}
			if j < i && math.Float64bits(f) == math.Float64bits(vals[j*n+i]) {
				at := spelled[i*n+j]
				b = append(b, b[at>>8:][:at&0xff]...)
				continue
			}
			at := len(b)
			if b, err = appendFloat(b, f); err != nil {
				return b, err
			}
			if j > i {
				spelled[j*n+i] = uint64(at)<<8 | uint64(len(b)-at)
			}
		}
		b = append(b, ']')
	}
	return append(b, ']'), nil
}

var spelledPool bufpool.Pool[uint64]

func (r MatVecResponse) AppendHead(b []byte) []byte {
	return appendVectorHead(b, r.RowStart, r.RowEnd, "y")
}
func (r MatVecResponse) appendArray(b []byte) ([]byte, error) { return appendFloats(b, r.Y) }
func (r MatVecResponse) values() []float64                    { return r.Y }

func (r ScoreResponse) AppendHead(b []byte) []byte {
	return appendVectorHead(b, r.RowStart, r.RowEnd, "scores")
}
func (r ScoreResponse) appendArray(b []byte) ([]byte, error) { return appendFloats(b, r.Scores) }
func (r ScoreResponse) values() []float64                    { return r.Scores }

func appendVectorHead(b []byte, lo, hi int, key string) []byte {
	b = appendIntField(append(b, '{'), "row_start", lo, false)
	b = appendIntField(b, "row_end", hi, false)
	return append(append(append(b, `,"`...), key...), `":`...)
}

// appendIntField appends `,"key":v` — without the comma right after the
// opening brace, and nothing at all for an omitempty zero.
func appendIntField(b []byte, key string, v int, omitempty bool) []byte {
	if omitempty && v == 0 {
		return b
	}
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	b = append(append(append(b, '"'), key...), `":`...)
	return strconv.AppendInt(b, int64(v), 10)
}

// appendString appends s as encoding/json quotes it. The measure names are
// plain; any other string takes encoding/json's own escaping.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendFloats appends one JSON array of floats, null for a nil slice.
func appendFloats(b []byte, fs []float64) (_ []byte, err error) {
	if fs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = appendFloat(b, f); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// parseVector reads a sparse operator's request body when it is exactly
// {"key":[ n numbers ]} as this encoder, encoding/json and client libraries
// write it (one trailing newline allowed), converting each literal as
// encoding/json does. Any other body — whitespace, more keys, null, another
// count, a literal near the float64 range — reports false and is left to
// encoding/json, which alone decides what is accepted and what errors say.
// The vector is taken from bufpool.Floats.
func parseVector(body []byte, key string, n int) ([]float64, bool) {
	open := `{"` + key + `":[`
	if !bytes.HasPrefix(body, []byte(open)) {
		return nil, false
	}
	vec := bufpool.Floats.Get(n)
	i := len(open)
	for k := range vec {
		if k > 0 {
			i = expect(body, i, ',')
		}
		if vec[k], i = readNumber(body, i); i < 0 {
			break
		}
	}
	if i < 0 || string(body[i:]) != "]}" && string(body[i:]) != "]}\n" {
		bufpool.Floats.Put(vec)
		return nil, false
	}
	return vec, true
}

// expect and readNumber return the index after what they step over at b[i],
// and -1 — which they also pass on — when it is not there.

func expect(b []byte, i int, c byte) int {
	if i < 0 || i >= len(b) || b[i] != c {
		return -1
	}
	return i + 1
}

// readNumber steps over one number of the JSON grammar at b[i] — refused,
// too, unless it is plainly below 1e308: that is the one thing encoding/json
// checks by converting, and no vector entry comes near it — and converts
// what the walk read (decimalFloat), leaving to strconv.ParseFloat
// the one literal in thousands that cannot be converted from what was
// carried: as strconv itself does internally, so the value is strconv's
// either way.
func readNumber(b []byte, i int) (float64, int) {
	man, exp10, digits, end := walkNumber(b, i)
	if end < 0 {
		return 0, -1
	}
	if f, ok := decimalFloat(man, exp10, digits, b[i] == '-'); ok {
		return f, end
	}
	f, err := strconv.ParseFloat(string(b[i:end]), 64)
	if err != nil {
		return 0, -1
	}
	return f, end
}

// walkNumber is that grammar read as it goes (FuzzReadNumber holds it to
// scanNumber, the grammar written plainly): it returns the index after the
// number at b[i], -1 when the number is refused, and the value as
// man × 10^exp10 under the sign at b[i]. man holds the number's digits, of
// which all but a fraction's leading zeros are significant; it is only
// meaningful when that count is at most 19, the most a uint64 always holds.
func walkNumber(b []byte, i int) (man uint64, exp10, digits, end int) {
	if i < 0 {
		return 0, 0, 0, -1
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	first := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		man = man*10 + uint64(b[i]-'0')
	}
	magnitude := i - first // the value is below this power of ten
	digits = magnitude
	switch {
	case magnitude == 0, magnitude > 1 && b[first] == '0':
		return 0, 0, 0, -1
	case b[first] == '0':
		magnitude, digits = 0, 0
	}
	if i < len(b) && b[i] == '.' {
		i++
		from := i
		if digits == 0 {
			// 0.000…0123: zeros ahead of the first nonzero digit weigh nothing.
			for i < len(b) && b[i] == '0' {
				i++
			}
			digits = from - i
		}
		// Eight digits a load while eight are there. Go gives +, - and | one
		// precedence: the test needs both pairs of parentheses.
		for ; i+8 <= len(b); i += 8 {
			v := binary.LittleEndian.Uint64(b[i:])
			if ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 != 0 {
				break
			}
			man = man*100000000 + eightDigits(v)
		}
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		if i == from {
			return 0, 0, 0, -1
		}
		exp10 = from - i
		digits += i - from
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		negative := i < len(b) && b[i] == '-'
		if negative || i < len(b) && b[i] == '+' {
			i++
		}
		from := i
		exp := 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if exp < 1<<20 { // anything this large is refused or is zero
				exp = exp*10 + int(b[i]-'0')
			}
		}
		switch {
		case i == from:
			return 0, 0, 0, -1
		case negative:
			exp10 -= exp
		default:
			exp10 += exp
			magnitude += exp
		}
	}
	if magnitude > 308 {
		return 0, 0, 0, -1
	}
	return man, exp10, digits, i
}

// eightDigits is the number eight ASCII digits spell, the first in v's low
// byte (SWAR: pairs, then fours, then the eight, three multiplies).
func eightDigits(v uint64) uint64 {
	const mask = 0x000000FF000000FF
	v -= 0x3030303030303030
	v = v*10 + v>>8
	return ((v&mask)*(100+1000000<<32) + (v>>16&mask)*(1+10000<<32)) >> 32 & 0xFFFFFFFF
}
