package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
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
	got, want := OK(v), jsonOK(v)
	if got.Status != want.Status || !bytes.Equal(got.Body, want.Body) {
		t.Errorf("%+v:\n OK  %d %s\njson %d %s", v, got.Status, got.Body, want.Status, want.Body)
	}
}

// TestFloatPayloadMatchesJSON: the envelope cases — omitempty fields, null
// and empty arrays and rows, strings that need escaping, refused values.
func TestFloatPayloadMatchesJSON(t *testing.T) {
	row := []float64{0, 1, -1, 0.5, 1e-7, 1.5e-7, 1e21, 123456.789, math.Copysign(0, -1), 1e-6, 5e-324, math.MaxFloat64}
	for _, v := range []any{
		RegionResponse{},
		RegionResponse{Start: 3, End: 15, Measure: "r2", Values: [][]float64{row, row}},
		RegionResponse{Start: 0, End: 12, Measure: "dprime", RowStart: 0, RowEnd: 4, Values: [][]float64{row}},
		RegionResponse{Start: 3, End: 15, Measure: "d", RowStart: 5, RowEnd: 9, Partial: true, Values: [][]float64{nil, row, {}, nil}},
		RegionResponse{Start: -3, End: 15, Measure: "r2", RowStart: -1, Values: [][]float64{}},
		RegionResponse{Measure: `a"b\c<d>&é` + "\x01\u2028", Values: [][]float64{{1}}},
		RegionResponse{Measure: "r2", Values: [][]float64{{1, math.NaN()}}},
		RegionResponse{Measure: "r2", Values: [][]float64{{math.Inf(-1)}}},
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
// encoding/json writes — in a matrix row, beside a null row, and in both
// vectors — or both refuse with the same 500. Then in a square reply, where
// a cell below the diagonal may be a copy of the one above: symmetric,
// antisymmetric, and around a unit diagonal.
func FuzzWireFloat(f *testing.F) {
	vs := wireFloats(f)
	for i, v := range vs {
		f.Add(math.Float64bits(v), math.Float64bits(vs[(i+1)%len(vs)]))
	}
	f.Fuzz(func(t *testing.T, bits, wbits uint64) {
		v, w := math.Float64frombits(bits), math.Float64frombits(wbits)
		sameResponse(t, RegionResponse{Start: 1, End: 3, Measure: "r2", Values: [][]float64{{v, -v}, nil, {v}}})
		sameResponse(t, MatVecResponse{RowEnd: 2, Y: []float64{v, v}})
		sameResponse(t, ScoreResponse{RowStart: 1, RowEnd: 2, Scores: []float64{v}})
		sameResponse(t, RegionResponse{End: 2, Measure: "r2", Values: [][]float64{{v, w}, {w, v}}})
		sameResponse(t, RegionResponse{End: 2, Measure: "d", Values: [][]float64{{v, w}, {-w, v}}})
		sameResponse(t, RegionResponse{End: 2, Measure: "r2", Values: [][]float64{{1, v}, {v, 1}}})
	})
}

// TestRegionMirrorCopy: a square reply whose cells below the diagonal are
// copied from above it reads as encoding/json's, and so does every square
// that is not quite symmetric: a cell one ulp off, -0 against +0, a value
// that is refused above, on and below the diagonal. A row window and a
// single cell are not squares at all.
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
	if !sym.square() {
		t.Fatal("a whole region is not taken for a square")
	}
	sameResponse(t, sym)
	sameResponse(t, with(7, 3, math.Nextafter(sym.Values[7][3], 2)))
	sameResponse(t, with(3, 7, math.Nextafter(sym.Values[3][7], 2)))
	zeros := with(9, 2, math.Copysign(0, -1))
	zeros.Values[2][9] = 0
	sameResponse(t, zeros)
	zeros.Values[2][9], zeros.Values[9][2] = zeros.Values[9][2], zeros.Values[2][9]
	sameResponse(t, zeros)
	for _, at := range [][2]int{{3, 7}, {5, 5}, {7, 3}, {23, 0}, {0, 23}} {
		sameResponse(t, with(at[0], at[1], math.NaN()))
		sameResponse(t, with(at[0], at[1], math.Inf(-1)))
	}
	both := with(3, 7, math.NaN())
	both.Values[7][3] = both.Values[3][7]
	sameResponse(t, both)

	window := sym
	window.RowStart, window.RowEnd, window.Values = 104, 112, sym.Values[4:12]
	one := RegionResponse{Start: 5, End: 6, Measure: "r2", Values: [][]float64{{1}}}
	ragged := with(0, 0, 1)
	ragged.Values[5] = nil
	for _, r := range []RegionResponse{window, one, ragged, {Measure: "r2", Values: [][]float64{}}} {
		if r.square() {
			t.Errorf("%d rows of %d taken for a square", len(r.Values), len(sym.Values))
		}
		sameResponse(t, r)
	}
}

var sinkResponse *Response

// BenchmarkEncodeRegion: one region payload through OK — the 80 × 80 square
// a node answers an unwindowed query with, and 40 rows of it as a shard
// answers for its strip (no cell is the mirror of another).
func BenchmarkEncodeRegion(b *testing.B) {
	square := wireRegion(b, 100, 180)
	strip := square
	strip.RowStart, strip.RowEnd, strip.Values = 100, 140, square.Values[:40]
	for _, c := range []struct {
		name string
		resp RegionResponse
	}{{"square", square}, {"strip", strip}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(OK(c.resp).Body)))
			b.ReportAllocs()
			for b.Loop() {
				sinkResponse = OK(c.resp)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.resp.floats()), "ns/float")
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
	}
	for _, lit := range []string{"1e5", "1E+5", "1e-07", "1e+07", "-0", "0.0", "-0.0", "00", "01", "-01", "007", ".5", "1.", "-.5", "+1", "-",
		"0x1p3", "0x10", "1_0", "Inf", "-Inf", "NaN", "Infinity", "1e400", "-1e400", "1e308", "1e309", "1.7976931348623157e308",
		"1.7976931348623159e308", "17976931348623157e292", "0.000001e314", "1e-400", "4.9e-324", "2.2250738585072011e-308", "1e", "1e+", "1e-",
		"1.e5", "1.5e5.5", "0.1", "0.30000000000000004", "123456789012345678901234567890", "1e0000000000000000000001",
		"1e99999999999999999999", "1e-99999999999999999999", "-1.25E-3", "9007199254740993"} {
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
// parseSparse.
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
}
