package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ldgemm/internal/popsim"
)

// jsonOK is OK as it was before the float encoder: encoding/json for every
// payload. It is the reference the encoder is held to, byte for byte.
func jsonOK(v any) *Response {
	b, err := json.Marshal(v)
	if err != nil {
		return Errorf(http.StatusInternalServerError, "encoding response: %v", err)
	}
	return &Response{Status: http.StatusOK, Body: append(b, '\n')}
}

func sameResponse(t *testing.T, v any) {
	t.Helper()
	sameBody(t, v, OK(v))
}

// sameRegion holds a node's region encoder to encoding/json: r's rows,
// flattened as the executor hands them over, through OK against r itself
// through encoding/json.
func sameRegion(t *testing.T, r RegionResponse) {
	t.Helper()
	for i, row := range r.Values {
		if len(row) != r.End-r.Start {
			t.Fatalf("row %d holds %d values in a region %d wide", i, len(row), r.End-r.Start)
		}
	}
	sameBody(t, r, OK(nodeRegion(r)))
}

func sameBody(t *testing.T, v any, got *Response) {
	t.Helper()
	if want := jsonOK(v); got.Status != want.Status || !bytes.Equal(got.Body, want.Body) {
		t.Errorf("%+v:\n OK  %d %s\njson %d %s", v, got.Status, got.Body, want.Status, want.Body)
	}
}

// nodeRegion is r as a node answers it: the envelope over its rows
// flattened row-major.
func nodeRegion(r RegionResponse) flatRegion {
	p := flatRegion{RegionResponse: r}
	p.Values = nil
	for _, row := range r.Values {
		p.vals = append(p.vals, row...)
	}
	return p
}

// TestFloatPayloadMatchesJSON: the envelope cases — omitempty fields,
// empty arrays, strings that need escaping, refused values — and a
// region's rows as a window, a square and no rows at all.
func TestFloatPayloadMatchesJSON(t *testing.T) {
	row := []float64{0, 1, -1, 0.5, 1e-7, 1.5e-7, 1e21, 123456.789, math.Copysign(0, -1), 1e-6, 5e-324, math.MaxFloat64}
	square := make([][]float64, len(row))
	for i := range square {
		square[i] = row
	}
	for _, r := range []RegionResponse{
		{Start: 3, End: 15, Measure: "r2", Values: [][]float64{row, row}},
		{Start: 3, End: 15, Measure: "r2", Values: square},
		{Start: 0, End: 12, Measure: "dprime", RowStart: 0, RowEnd: 4, Values: [][]float64{row}},
		{Start: 3, End: 15, Measure: "d", RowStart: 5, RowEnd: 9, Partial: true, Values: [][]float64{row, row, row, row}},
		{Start: -3, End: 15, Measure: "r2", RowStart: -1, Values: [][]float64{}},
		{End: 1, Measure: `a"b\c<d>&é` + "\x01\u2028", Values: [][]float64{{1}}},
		{End: 2, Measure: "r2", Values: [][]float64{{1, math.NaN()}}},
		{End: 1, Measure: "r2", Values: [][]float64{{math.Inf(-1)}}},
	} {
		sameRegion(t, r)
	}
	for _, v := range []any{
		MatVecResponse{},
		MatVecResponse{RowStart: 0, RowEnd: 12, Y: row},
		MatVecResponse{RowStart: 7, RowEnd: 7, Y: []float64{}},
		MatVecResponse{RowEnd: 1, Y: []float64{math.Inf(1)}},
		ScoreResponse{},
		ScoreResponse{RowStart: 100, RowEnd: 112, Scores: row},
		ScoreResponse{RowEnd: 1, Scores: []float64{math.NaN()}},
	} {
		sameResponse(t, v)
	}
}

// wireRegion is the region TestWireStability (internal/cluster) pins, as
// its single node computes it.
func wireRegion(tb testing.TB, start, end int) RegionResponse {
	tb.Helper()
	g, err := popsim.Mosaic(256, 128, popsim.MosaicConfig{Seed: 13})
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	path := (RegionQuery{Start: start, End: end, Measure: "r2"}).Path(Window{Lo: start, Hi: end})
	New(g, Config{Threads: 1}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	var resp RegionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		tb.Fatal(err)
	}
	return resp
}

// wireFloats is the float corpus: the spellings' boundary values, the
// values encoding/json refuses, and eight rows of a real region.
func wireFloats(tb testing.TB) []float64 {
	vs := []float64{0, math.Copysign(0, -1), 1, -1, 5e-324, -5e-324, 2.2250738585072014e-308,
		1e-6, 9.999999999999999e-7, 1e-7, 1e21, 9.999999999999999e20, -1e21, 1e22, 1e-10, 1.5e-9,
		math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1), 0.1, 1.0 / 3, 123456789.125}
	for _, row := range wireRegion(tb, 100, 160).Values[:8] {
		vs = append(vs, row...)
	}
	return vs
}

// FuzzWireFloat: for any float64 bit pattern the encoder writes what
// encoding/json writes — in a row window, in rows that are not a square,
// and in both vectors — or both refuse with the same 500. Then in a square reply, where
// a cell below the diagonal may be a copy of the one above: symmetric,
// antisymmetric, and around a unit diagonal.
func FuzzWireFloat(f *testing.F) {
	vs := wireFloats(f)
	for i, v := range vs {
		f.Add(math.Float64bits(v), math.Float64bits(vs[(i+1)%len(vs)]))
	}
	f.Fuzz(func(t *testing.T, bits, wbits uint64) {
		v, w := math.Float64frombits(bits), math.Float64frombits(wbits)
		sameRegion(t, RegionResponse{Start: 1, End: 3, Measure: "r2", RowStart: 1, RowEnd: 2, Values: [][]float64{{v, -v}}})
		sameRegion(t, RegionResponse{Start: 1, End: 3, Measure: "r2", Values: [][]float64{{v, -v}, {w, v}, {v, w}}})
		sameResponse(t, MatVecResponse{RowEnd: 2, Y: []float64{v, v}})
		sameResponse(t, ScoreResponse{RowStart: 1, RowEnd: 2, Scores: []float64{v}})
		sameRegion(t, RegionResponse{End: 2, Measure: "r2", Values: [][]float64{{v, w}, {w, v}}})
		sameRegion(t, RegionResponse{End: 2, Measure: "d", Values: [][]float64{{v, w}, {-w, v}}})
		sameRegion(t, RegionResponse{End: 2, Measure: "r2", Values: [][]float64{{1, v}, {v, 1}}})
	})
}

// TestRegionMirrorCopy: a square reply whose cells below the diagonal are
// copied from above it reads as encoding/json's, and so does every square
// that is not quite symmetric: a cell one ulp off, -0 against +0, a value
// that is refused above, on and below the diagonal. A row window, a single
// cell and no rows at all are spelled row by row.
func TestRegionMirrorCopy(t *testing.T) {
	sym := wireRegion(t, 100, 124)
	sym.RowStart, sym.RowEnd = 0, 0 // as the node answers an unwindowed query
	for i, row := range sym.Values {
		for j := range row {
			if math.Float64bits(row[j]) != math.Float64bits(sym.Values[j][i]) {
				t.Fatalf("the region is not symmetric at (%d, %d)", i, j)
			}
		}
	}
	with := func(i, j int, v float64) RegionResponse {
		r := sym
		r.Values = make([][]float64, len(sym.Values))
		for k, row := range sym.Values {
			r.Values[k] = append([]float64(nil), row...)
		}
		r.Values[i][j] = v
		return r
	}
	sameRegion(t, sym)
	sameRegion(t, with(7, 3, math.Nextafter(sym.Values[7][3], 2)))
	sameRegion(t, with(3, 7, math.Nextafter(sym.Values[3][7], 2)))
	zeros := with(9, 2, math.Copysign(0, -1))
	zeros.Values[2][9] = 0
	sameRegion(t, zeros)
	zeros.Values[2][9], zeros.Values[9][2] = zeros.Values[9][2], zeros.Values[2][9]
	sameRegion(t, zeros)
	for _, at := range [][2]int{{3, 7}, {5, 5}, {7, 3}, {23, 0}, {0, 23}} {
		sameRegion(t, with(at[0], at[1], math.NaN()))
		sameRegion(t, with(at[0], at[1], math.Inf(-1)))
	}
	both := with(3, 7, math.NaN())
	both.Values[7][3] = both.Values[3][7]
	sameRegion(t, both)

	window := sym
	window.RowStart, window.RowEnd, window.Values = 104, 112, sym.Values[4:12]
	one := RegionResponse{Start: 5, End: 6, Measure: "r2", Values: [][]float64{{1}}}
	for _, r := range []RegionResponse{window, one, {End: 3, Measure: "r2", Values: [][]float64{}}} {
		sameRegion(t, r)
	}
}

// TestRawPayload: a float payload's raw spelling is its JSON head, then
// each float's 8 little-endian bytes, and ReadRaw reads it back bit for bit
// into a payload of its shape; a value JSON refuses is refused in both
// spellings, with the same 500. A coordinator's Stacked answer spells the
// rows of a lost strip null under partial, as encoding/json spells nil rows.
func TestRawPayload(t *testing.T) {
	for _, v := range wireFloats(t) {
		for _, p := range []FloatPayload{
			nodeRegion(RegionResponse{Start: 1, End: 3, Measure: "r2", RowStart: 1, RowEnd: 2, Values: [][]float64{{v, -v}}}),
			nodeRegion(RegionResponse{End: 2, Measure: "d", Values: [][]float64{{1, v}, {v, 1}}}),
			MatVecResponse{RowEnd: 2, Y: []float64{v, 1}},
			ScoreResponse{RowStart: 1, RowEnd: 2, Scores: []float64{v}},
		} {
			raw, js := okRaw(p), OK(p)
			if raw.Status != js.Status || raw.Status != http.StatusOK && !bytes.Equal(raw.Body, js.Body) {
				t.Fatalf("%v: raw %d %s, JSON %d %s", v, raw.Status, raw.Body, js.Status, js.Body)
			}
			if raw.Status != http.StatusOK {
				continue
			}
			want := p.AppendHead(nil)
			for _, f := range p.values() {
				want = binary.LittleEndian.AppendUint64(want, math.Float64bits(f))
			}
			if !bytes.Equal(raw.Body, want) {
				t.Fatalf("%v: raw spelling %q, want %q", v, raw.Body, want)
			}
			vals := append([]float64(nil), p.values()...)
			clear(p.values())
			if err := ReadRaw(raw.Body, p); err != nil {
				t.Fatalf("%v: %v", v, err)
			}
			for i, f := range p.values() {
				if math.Float64bits(f) != math.Float64bits(vals[i]) {
					t.Fatalf("%v: float %d reads back as %v", v, i, f)
				}
			}
		}
	}

	q := RegionQuery{Start: 10, End: 13, Measure: "r2"}
	vals := []float64{1, 0.5, 0.25, 0.5, 1, 0.125, 0.25, 0.125, 1}
	for _, c := range []struct {
		rows, null Window
		want       RegionResponse
	}{
		{Window{Lo: 10, Hi: 13}, Window{Lo: 1, Hi: 2},
			RegionResponse{Start: 10, End: 13, Measure: "r2", Partial: true, Values: [][]float64{vals[0:3], nil, vals[6:9]}}},
		{Window{Lo: 11, Hi: 13}, Window{Lo: 0, Hi: 1},
			RegionResponse{Start: 10, End: 13, Measure: "r2", RowStart: 11, RowEnd: 13, Partial: true, Values: [][]float64{nil, vals[3:6]}}},
	} {
		n := c.rows.Hi - c.rows.Lo
		sameBody(t, c.want, OK(q.Stacked(c.rows, vals[:3*n], []Window{c.null})))
	}
}

// TestRawReplies: a node asked for application/octet-stream answers a
// float payload raw — declared so, its length declared — holding the bits
// of its JSON answer, and answers anything else in JSON.
func TestRawReplies(t *testing.T) {
	ts, _ := testServer(t)
	get := func(path, accept string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, c := range []struct {
		path string
		q    RegionQuery
		rows Window
	}{
		{"/api/ld/region?start=10&end=50", RegionQuery{Start: 10, End: 50, Measure: "r2"}, Window{Lo: 10, Hi: 50}},
		{"/api/ld/region?start=10&end=50&rows=20:30&measure=dprime", RegionQuery{Start: 10, End: 50, Measure: "dprime"}, Window{Lo: 20, Hi: 30}},
	} {
		var want RegionResponse
		if code := getJSON(t, ts.URL+c.path, &want); code != http.StatusOK {
			t.Fatalf("%s: JSON status %d", c.path, code)
		}
		resp := get(c.path, OctetStream)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != OctetStream || resp.ContentLength != int64(len(body)) {
			t.Fatalf("%s: status %d, Content-Type %q, Content-Length %d on %d bytes",
				c.path, resp.StatusCode, resp.Header.Get("Content-Type"), resp.ContentLength, len(body))
		}
		width := c.q.End - c.q.Start
		vals := make([]float64, (c.rows.Hi-c.rows.Lo)*width)
		if err := ReadRaw(body, c.q.Stacked(c.rows, vals, nil)); err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		for i, row := range want.Values {
			for j, f := range row {
				if math.Float64bits(f) != math.Float64bits(vals[i*width+j]) {
					t.Fatalf("%s: cell (%d, %d) is %v raw, %v in JSON", c.path, i, j, vals[i*width+j], f)
				}
			}
		}
	}
	resp := get("/api/ld/top?k=5", OctetStream)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("top: status %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
}

var sinkResponse *Response

// BenchmarkEncodeRegion: one region payload through the encoder a node
// runs — its row-major floats spelled into a pooled buffer, which is then
// released as the mux releases it after Write — for the 80 × 80 square a
// node answers an unwindowed query with, and 40 rows of it as a rows=
// window asks for them (no cell is the mirror of another).
func BenchmarkEncodeRegion(b *testing.B) {
	square := nodeRegion(wireRegion(b, 100, 180))
	strip := square
	strip.RowStart, strip.RowEnd, strip.vals = 100, 140, square.vals[:40*80]
	for _, c := range []struct {
		name    string
		payload flatRegion
	}{{"square", square}, {"strip", strip}} {
		b.Run(c.name, func(b *testing.B) {
			warm := OK(c.payload)
			b.SetBytes(int64(len(warm.Body)))
			warm.release() // the first encode below reuses its buffer
			b.ReportAllocs()
			for b.Loop() {
				sinkResponse = OK(c.payload)
				sinkResponse.release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.payload.values())), "ns/float")
		})
	}
}

// TestSparseBodyMatchesJSON: the canonical POST body a coordinator sends
// its shards is what encoding/json writes for the request struct, for
// every finite float of the corpus (a decoded vector holds no other).
func TestSparseBodyMatchesJSON(t *testing.T) {
	var vec []float64
	for _, v := range wireFloats(t) {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			vec = append(vec, v)
		}
	}
	for _, vec := range [][]float64{vec, vec[:1], {}, nil} {
		for op, req := range map[string]any{"matvec": MatVecRequest{X: vec}, "score": ScoreRequest{Z: vec}} {
			want, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			if got := (SparseQuery{Op: op, Vec: vec}).Body(); !bytes.Equal(got, want) {
				t.Errorf("%s body of %d entries:\n got %s\njson %s", op, len(vec), got, want)
			}
		}
	}
}

// jsonSparse is parseSparse as it was before the vector scanner:
// encoding/json for every body. It is the reference parseVector's fast
// path is held to — verdict, decoded bits and error body.
func jsonSparse(op string, body []byte, lim Limits) (Query, *Response) {
	if limit := int64(lim.SNPs)*64 + 4096; int64(len(body)) > limit {
		// The one thing a parse does before reading the body: the cap.
		return nil, Errorf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", limit)
	}
	q := SparseQuery{Op: op}
	var err error
	if op == "score" {
		var req ScoreRequest
		err = json.Unmarshal(body, &req)
		q.Vec = req.Z
	} else {
		var req MatVecRequest
		err = json.Unmarshal(body, &req)
		q.Vec = req.X
	}
	p := params{}
	if err != nil {
		p.fail("request body: %v", err)
	}
	if len(q.Vec) != lim.SNPs {
		p.fail("vector holds %d entries, dataset has %d SNPs", len(q.Vec), lim.SNPs)
	}
	q.rowWindow = p.rows(Window{Hi: lim.SNPs}, "%d..%d")
	return q, p.rejection
}

func sameSparseParse(t *testing.T, op string, body []byte, n int) {
	t.Helper()
	lim := Limits{SNPs: n, Sparse: true}
	r := httptest.NewRequest(http.MethodPost, "/api/sparse/"+op, bytes.NewReader(body))
	got, gotRej := parseSparse(op)(r, lim)
	want, wantRej := jsonSparse(op, body, lim)
	if (gotRej == nil) != (wantRej == nil) {
		t.Fatalf("%s %q: rejected %v, encoding/json alone %v", op, body, gotRej, wantRej)
	}
	if gotRej != nil {
		if gotRej.Status != wantRej.Status || !bytes.Equal(gotRej.Body, wantRej.Body) {
			t.Fatalf("%s %q: %d %s, encoding/json alone %d %s", op, body, gotRej.Status, gotRej.Body, wantRej.Status, wantRej.Body)
		}
		return
	}
	g, w := got.(SparseQuery), want.(SparseQuery)
	if g.Op != w.Op || g.rowWindow != w.rowWindow || len(g.Vec) != len(w.Vec) {
		t.Fatalf("%s %q: parsed %+v, encoding/json alone %+v", op, body, g, w)
	}
	for i := range g.Vec {
		if math.Float64bits(g.Vec[i]) != math.Float64bits(w.Vec[i]) {
			t.Fatalf("%s %q: entry %d = %v, encoding/json alone %v", op, body, i, g.Vec[i], w.Vec[i])
		}
	}
}

// vectorLiterals are number spellings the grammar allows or nearly allows.
var vectorLiterals = []string{"1e5", "1E+5", "1e-07", "1e+07", "-0", "0.0", "-0.0", "00", "01", "-01", "007", ".5", "1.", "-.5", "+1", "-",
	"0x1p3", "0x10", "1_0", "Inf", "-Inf", "NaN", "Infinity", "1e400", "-1e400", "1e308", "1e309", "1.7976931348623157e308",
	"1.7976931348623159e308", "17976931348623157e292", "0.000001e314", "1e-400", "4.9e-324", "2.2250738585072011e-308", "1e", "1e+", "1e-",
	"1.e5", "1.5e5.5", "0.1", "0.30000000000000004", "123456789012345678901234567890", "1e0000000000000000000001",
	"1e99999999999999999999", "1e-99999999999999999999", "-1.25E-3", "9007199254740993"}

// vectorBodies are request bodies for a 3-SNP dataset: every number
// spelling the grammar allows or nearly allows, and every way a body can
// differ from the one shape the scanner takes.
func vectorBodies() []string {
	bodies := []string{
		`{"x":[1,2,3]}`, `{"x":[1,2,3]}` + "\n", `{"x":[1,2,3]}` + "\n\n", `{"x":[1,2,3]}` + "\r\n", `{"z":[1,2,3]}`,
		`{"x":[]}`, `{"x":[1,2]}`, `{"x":[1,2,3,4]}`, `{"x":[1,2,3,]}`, `{"x":[,1,2,3]}`, `{"x":[1,,2,3]}`,
		` {"x":[1,2,3]}`, `{ "x":[1,2,3]}`, `{"x" :[1,2,3]}`, `{"x": [1,2,3]}`, `{"x":[ 1,2,3]}`, `{"x":[1 ,2,3]}`,
		`{"x":[1, 2,3]}`, `{"x":[1,2,3 ]}`, `{"x":[1,2,3] }`, `{"x":[1,2,3]} `, "{\"x\":[1,\t2,\n3]}",
		`{"x":[1,2,3],"x":[4,5,6]}`, `{"x":[4,5,6],"x":[1,2]}`, `{"x":[1,2,3],"y":1}`, `{"y":1,"x":[1,2,3]}`,
		`{"X":[1,2,3]}`, `{"x":null}`, `{"x":[1,null,3]}`, `null`, `{}`, ``, `[1,2,3]`, `{"x":[1,2,3]}x`, `{"x":[1,2,3]}}`,
		`{"x":[1,2,3]`, `{"x":[1,2,3`, `{"x":[1,2,"3"]}`, `{"x":[1,2,[3]]}`, `{"x":[1,2,true]}`, `{"x":"1,2,3"}`,
		// A space among eight bytes the reader loads at once.
		`{"x":[0. 0000000,0,0]}`, `{"x":[0.0000000 ,0,0]}`, `{"x":[1e 0000000,0,0]}`,
	}
	for _, lit := range vectorLiterals {
		bodies = append(bodies, `{"x":[`+lit+`,2,3]}`, `{"x":[1,2,`+lit+`]}`)
	}
	return bodies
}

// TestParseVectorMatchesJSON: on every body of the table, under both
// operators, parseSparse answers exactly as encoding/json alone would.
func TestParseVectorMatchesJSON(t *testing.T) {
	for _, body := range vectorBodies() {
		sameSparseParse(t, "matvec", []byte(body), 3)
		sameSparseParse(t, "score", []byte(body), 3)
	}
	if _, ok := parseVector([]byte(`{"x":[1,2,3]}`), "x", 3); !ok {
		t.Fatal("the canonical body did not take the scanner")
	}
}

// FuzzParseVector: the same differential on arbitrary bytes.
func FuzzParseVector(f *testing.F) {
	for _, body := range vectorBodies() {
		f.Add([]byte(body), uint8(3), false)
	}
	f.Add([]byte(`{"z":[0.5]}`), uint8(1), true)
	f.Add([]byte(`{"z":[]}`), uint8(0), true)
	f.Fuzz(func(t *testing.T, body []byte, n uint8, score bool) {
		op := "matvec"
		if score {
			op = "score"
		}
		sameSparseParse(t, op, body, int(n%8))
	})
}

// BenchmarkParseVector: the 4096-float body of a matvec request through
// parseSparse — the body read and both allocations included.
func BenchmarkParseVector(b *testing.B) {
	vec := make([]float64, 4096)
	for i := range vec {
		vec[i] = math.Sin(float64(3*i+1)) * float64(i%7+1)
	}
	body := SparseQuery{Op: "matvec", Vec: vec}.Body()
	parse, lim := parseSparse("matvec"), Limits{SNPs: len(vec), Sparse: true}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, rej := parse(httptest.NewRequest(http.MethodPost, "/api/sparse/matvec", bytes.NewReader(body)), lim); rej != nil {
			b.Fatalf("%s", rej.Body)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vec)), "ns/float")
}

// scanNumber steps over one number of the JSON grammar at b[i] and returns
// the index after it, or -1 when there is none. The grammar has no upper
// bound and float64 does, so a number is also refused unless it is plainly
// below 1e308: that is the one thing encoding/json checks by converting.
// It is the grammar written plainly, the oracle walkNumber is held to.
func scanNumber(b []byte, i int) int {
	if i < 0 {
		return -1
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	from := i
	i = scanDigits(b, i)
	magnitude := i - from // the value is below this power of ten
	switch {
	case magnitude == 0, magnitude > 1 && b[from] == '0':
		return -1
	case b[from] == '0':
		magnitude = 0
	}
	if i < len(b) && b[i] == '.' {
		from = i + 1
		if i = scanDigits(b, from); i == from {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		negative := i < len(b) && b[i] == '-'
		if negative || i < len(b) && b[i] == '+' {
			i++
		}
		from = i
		if i = scanDigits(b, from); i == from {
			return -1
		}
		if !negative {
			exp, err := strconv.Atoi(string(b[from:i]))
			if err != nil {
				return -1
			}
			magnitude += exp
		}
	}
	if magnitude > 308 {
		return -1
	}
	return i
}

// scanDigits steps over any decimal digits at b[i].
func scanDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// scanThenParse is readNumber as parseVector had it before the reader: the
// grammar walked by scanNumber and the value converted by
// strconv.ParseFloat. It is the oracle.
func scanThenParse(b []byte, i int) (float64, int) {
	end := scanNumber(b, i)
	if end < 0 {
		return 0, -1
	}
	f, err := strconv.ParseFloat(string(b[i:end]), 64)
	if err != nil {
		return 0, -1
	}
	return f, end
}

// sameNumber holds readNumber at b[i] to scanThenParse: the end index
// scanNumber stops at — the two walks are one grammar written twice — and the
// bits strconv.ParseFloat reads from the literal, or both refuse.
func sameNumber(t testing.TB, b []byte, i int) {
	f, end := readNumber(b, i)
	wf, want := scanThenParse(b, i)
	if end != want {
		t.Fatalf("%q at %d: read to %d, scanNumber stops at %d", b, i, end, want)
	}
	if math.Float64bits(f) != math.Float64bits(wf) {
		t.Fatalf("%q: read %v (%016x), strconv %v (%016x)", b[i:want], f, math.Float64bits(f), wf, math.Float64bits(wf))
	}
}

// numberEdges are literals where a decimal reader goes wrong first: the
// integers float64 stops holding, 2^64 and its neighbours (the accumulator's
// edge), half-way cases, leading and trailing zeros, the zeros, and the
// longest and shortest ends of the range.
var numberEdges = []string{
	"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
	"18446744073709551615", "18446744073709551616", "18446744073709551617", "1844674407370955161", "9999999999999999999",
	"10000000000000000000", "99999999999999999999", "1.8446744073709551615", "0.18446744073709551616e20",
	"0", "-0", "0.0", "-0.0", "0e5", "0E-5", "0.000e+000", "0.00000000000000000000", "-0.00000000000000000000e-7",
	"0.1", "0.5", "0.25", "1.5", "2.5", "1e23", "8.5e22", "9.5e22", "1e22", "1e-22", "123456789e-31",
	"0.0000000000000000000000000000000000000123", "0.00000000000000000001234567890123456789",
	"0.000000000000000000012345678901234567891", "0.00012345678901234567", "0.012345678901234567",
	"1.50000000000000000000000", "1500000000000000000000000", "1.0000000000000000000000000000001",
	"1.00000000000000011102230246251565404236316680908203125", "1.00000000000000011102230246251565404236316680908203124",
	"1.00000000000000011102230246251565404236316680908203126", "4.4501477170144023e-308", "2.2250738585072014e-308",
	"2.2250738585072011e-308", "2.2250738585072009e-308", "4.9406564584124654e-324", "2.4703282292062327e-324",
	"2.4703282292062328e-324", "5e-324", "3e-324", "2e-324", "1e-291", "1e-292", "1e-293", "12345678901234567e-308",
	"1.7976931348623157e307", "9.9999999999999999e307", "99999999999999999e291", "0.000001e313", "1e-400", "1e-1048577",
	"12345678", "123456789", "1234567.8", "0.12345678", "0.123456789", "0.1234567", "0.12345678e1", "1.12345678,",
}

// TestReadNumberMatchesStrconv: the reader against scanNumber and strconv
// on the edges, then in bulk — shortest spellings of any bits and of
// subnormals, every 2^e and 10^k with its neighbours, each respelled with 17
// to 20 digits and in every exponent form, and decimal midpoints between
// adjacent doubles cut and rounded at 17 to 19 digits.
func TestReadNumberMatchesStrconv(t *testing.T) {
	bulk, mids := 200_000, 3_000
	if testing.Short() || raceEnabled {
		bulk, mids = 4_000, 300
	}
	checked := 0
	var buf []byte
	// One literal, converted once and walked three ways: followed by a comma
	// and more digits (a load of eight may span them), closing a body, and
	// ending the buffer.
	check := func(lit []byte) {
		checked++
		buf = append(append(append(buf[:0], '[', ','), lit...), ",12345678,"...)
		sameNumber(t, buf, 2)
		man, exp10, digits, end := walkNumber(buf, 2)
		for _, b := range [][]byte{buf[:2+len(lit)+2], buf[:2+len(lit)]} {
			if m, e, d, to := walkNumber(b, 2); m != man || e != exp10 || d != digits || to != end {
				t.Fatalf("%q walked to %d: %d × 10^%d, %d digits; in %q to %d: %d × 10^%d, %d digits", b, to, m, e, d, buf, end, man, exp10, digits)
			}
		}
	}
	var lit, alt []byte
	// exponentForms respells d.ddde±xx every way the grammar allows.
	exponentForms := func(lit []byte) {
		e := bytes.IndexByte(lit, 'e')
		if e < 0 {
			return
		}
		digits, sign := bytes.TrimLeft(lit[e+2:], "0"), ""
		if len(digits) == 0 {
			digits = []byte("0")
		}
		if lit[e+1] == '-' {
			sign = "-"
		}
		for _, mark := range [...]string{"E", "e", "e0", "E00"} { // strconv wrote e+0x or e-0x
			alt = append(append(append(alt[:0], lit[:e]...), mark[0]), sign...)
			check(append(append(alt, mark[1:]...), digits...))
		}
	}
	value := func(f float64) {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return
		}
		lit = strconv.AppendFloat(lit[:0], f, 'e', -1, 64)
		check(lit)
		exponentForms(lit)
		check(strconv.AppendFloat(lit[:0], f, 'g', -1, 64))
		if abs := math.Abs(f); 1e-30 < abs && abs < 1e25 {
			check(strconv.AppendFloat(lit[:0], f, 'f', -1, 64))
		}
		// 17 and 18 digits as strconv rounds them, then 19 and 20: the 18
		// with more digits behind them, zeros (the same value) or not.
		check(strconv.AppendFloat(lit[:0], f, 'e', 16, 64))
		lit = strconv.AppendFloat(lit[:0], f, 'e', 17, 64)
		check(lit)
		e := bytes.IndexByte(lit, 'e')
		for _, more := range [...]string{"0", "00", "7", "50", "49"} {
			check(append(append(append(alt[:0], lit[:e]...), more...), lit[e:]...))
		}
	}
	around := func(f float64) {
		value(f)
		value(-f)
		value(math.Nextafter(f, math.Inf(1)))
		value(math.Nextafter(f, math.Inf(-1)))
	}

	for _, l := range numberEdges {
		check([]byte(l))
		check([]byte("-" + l))
	}
	for _, l := range vectorLiterals {
		check([]byte(l))
	}
	around(math.MaxFloat64)
	for e := -1074; e <= 1023; e++ {
		around(math.Ldexp(1, e))
	}
	for k := -330; k <= 310; k++ {
		check(append(lit[:0], "1e"+strconv.Itoa(k)...))
		if f, err := strconv.ParseFloat("1e"+strconv.Itoa(k), 64); err == nil {
			around(f)
		}
	}
	// Leading fraction zeros and trailing zeros around the 19-digit limit.
	for zeros := 0; zeros <= 40; zeros++ {
		for _, digits := range []string{"1", "123", "12345678", "1234567890123456", "12345678901234567", "1234567890123456789", "12345678901234567890"} {
			z := strings.Repeat("0", zeros)
			check([]byte("0." + z + digits))
			check([]byte("0." + z + digits + "e-5"))
			check([]byte(digits + z))
			check([]byte(digits[:1] + "." + digits[1:] + z))
			check([]byte(digits + "." + z + "1"))
		}
	}

	rng := rand.New(rand.NewSource(27))
	for k := 0; k < bulk; k++ {
		value(math.Float64frombits(rng.Uint64())) // any bits
		value(rng.NormFloat64())                  // a request vector's
		value(rng.Float64() * rng.Float64())      // r²-shaped
		value(rng.NormFloat64() * float64(int64(1)<<rng.Intn(62)))
		check(strconv.AppendUint(lit[:0], rng.Uint64()>>rng.Intn(64), 10)) // integers to 2^64
		if k%64 == 0 {                                                     // subnormals: both sides take strconv's long arithmetic
			value(math.Float64frombits(rng.Uint64() >> 12))
		}
	}

	// Midpoints: the decimal expansion of (f + next)/2 is exact and finite;
	// cut at 17 to 19 digits it lies below the midpoint, rounded it may lie
	// on either side, and at full length it is the tie itself.
	var mid big.Float
	for k := 0; k < mids; k++ {
		// Mostly near 1: strconv settles a tie by long arithmetic, the
		// slower the further the exponent is from 0.
		f := rng.NormFloat64()
		if k%8 == 0 {
			f = math.Float64frombits(rng.Uint64())
		}
		next := math.Nextafter(f, math.Inf(1))
		if math.IsNaN(f) || math.IsInf(f, 0) || math.IsInf(next, 0) || f == 0 || math.Abs(f) >= 1e307 {
			continue
		}
		mid.SetPrec(64).SetFloat64(f)
		mid.Add(&mid, new(big.Float).SetFloat64(next))
		mid.Quo(&mid, big.NewFloat(2))
		full := mid.Append(lit[:0], 'e', 40)
		e := bytes.IndexByte(full, 'e')
		point := bytes.IndexByte(full, '.')
		for digits := 17; digits <= 19; digits++ {
			check(mid.Append(alt[:0], 'e', digits-1))                                        // rounded
			check(append(append(alt[:0], full[:point+digits]...), full[e:]...))              // cut
			check(append(append(append(alt[:0], full[:point+digits]...), '1'), full[e:]...)) // and nudged past 19
		}
		check(mid.Append(alt[:0], 'e', -1))
	}
	t.Logf("%d literals", checked)
	if bulk == 200_000 && checked < 1e7 {
		t.Fatalf("checked %d literals, want at least 1e7", checked)
	}
}

// TestReaderRarelyDeclines: on a request vector as clients send it and on
// shortest spellings of random doubles, decimalFloat leaves fewer than one
// literal in a thousand to strconv.
func TestReaderRarelyDeclines(t *testing.T) {
	n := 1_000_000
	if testing.Short() || raceEnabled {
		n = 50_000
	}
	rng := rand.New(rand.NewSource(27))
	declines := func(name string, draw func() float64) {
		var buf []byte
		for k := 0; k < n; k++ {
			buf = append(strconv.AppendFloat(buf, draw(), 'g', -1, 64), ',')
		}
		declined := 0
		for i := 0; i < len(buf); i++ {
			man, exp10, digits, end := walkNumber(buf, i)
			if end < 0 {
				t.Fatalf("%s: a shortest spelling was refused", name)
			}
			if _, ok := decimalFloat(man, exp10, digits, buf[i] == '-'); !ok {
				declined++
			}
			i = end
		}
		t.Logf("%s: %d of %d literals went to strconv", name, declined, n)
		if declined*1000 >= n {
			t.Errorf("%s: %d of %d literals went to strconv, want fewer than 1 in 1000", name, declined, n)
		}
	}
	declines("request vector", rng.NormFloat64)
	declines("r2", func() float64 { return rng.Float64() * rng.Float64() })
	declines("normal doubles", func() float64 {
		for {
			// Of the whole range the table's ends and the subnormals decline
			// by rule; what is counted is the algorithm inside its range.
			if f := math.Float64frombits(rng.Uint64()); math.Abs(f) > 1e-270 && math.Abs(f) < 1e300 {
				return f
			}
		}
	})
}

// FuzzReadNumber: readNumber at the start of any bytes against scanNumber —
// the same end index, which is what keeps the two walks one grammar — and
// strconv.
func FuzzReadNumber(f *testing.F) {
	for _, l := range numberEdges {
		f.Add([]byte(l))
		f.Add([]byte("-" + l + ",1"))
	}
	for _, l := range vectorLiterals {
		f.Add([]byte(l))
	}
	for _, l := range []string{"0. 0000000,0,0]}", "0.0000000 ,0,0]}", "1e 0000000,0,0]}", "0.1234567 ", "0.12345678:", "0.123456789012345/7"} {
		f.Add([]byte(l))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameNumber(t, data, 0)
	})
}

var sinkFloat float64

// BenchmarkReadNumber: the reader beside the walk it replaced — scanNumber
// for the grammar, then strconv.ParseFloat on a copy of the literal — on the
// literals the float payloads and request vectors hold.
func BenchmarkReadNumber(b *testing.B) {
	rng := rand.New(rand.NewSource(27))
	shapes := []struct {
		name string
		lit  func() []byte
	}{
		{"r2", func() []byte { // 0.ddd…, 16–18 digits
			a, n1, n2 := rng.Intn(400)+1, rng.Intn(900)+100, rng.Intn(900)+100
			return strconv.AppendFloat(nil, float64(a*a)/float64(n1*n2*64), 'f', -1, 64)
		}},
		{"matvec", func() []byte { // -d.ddd…
			return strconv.AppendFloat(nil, -(1 + 8*rng.Float64()), 'f', -1, 64)
		}},
		{"exponent", func() []byte { // d.ddde-xx
			return strconv.AppendFloat(nil, rng.Float64()*1e-9, 'e', -1, 64)
		}},
		{"short", func() []byte { // 8 digits
			return strconv.AppendFloat(nil, float64(rng.Intn(1e8))/1e6, 'f', -1, 64)
		}},
	}
	for _, shape := range shapes {
		var buf []byte // the literals, each followed by a comma
		for k := 0; k < 4096; k++ {
			buf = append(append(buf, shape.lit()...), ',')
		}
		run := func(name string, read func(b []byte, i int) (float64, int)) {
			b.Run(shape.name+"/"+name, func(b *testing.B) {
				b.SetBytes(int64(len(buf)))
				for b.Loop() {
					for i := 0; i < len(buf); i++ {
						f, end := read(buf, i)
						if end < 0 {
							b.Fatalf("refused %q", buf[i:min(i+30, len(buf))])
						}
						sinkFloat, i = f, end
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*4096), "ns/float")
			})
		}
		run("reader", readNumber)
		run("strconv", scanThenParse)
	}
}
