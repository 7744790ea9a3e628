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

// FuzzWireFloat: for any float64 bit pattern the encoder writes what
// encoding/json writes — in a matrix row, beside a null row, and in both
// vectors — or both refuse with the same 500.
func FuzzWireFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -1, 5e-324, -5e-324, 2.2250738585072014e-308,
		1e-6, 9.999999999999999e-7, 1e-7, 1e21, 9.999999999999999e20, -1e21, 1e22, 1e-10, 1.5e-9,
		math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1), 0.1, 1.0 / 3, 123456789.125} {
		f.Add(math.Float64bits(v))
	}
	for _, row := range wireRegion(f, 100, 160).Values[:8] {
		for _, v := range row {
			f.Add(math.Float64bits(v))
		}
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		sameResponse(t, RegionResponse{Start: 1, End: 3, Measure: "r2", Values: [][]float64{{v, -v}, nil, {v}}})
		sameResponse(t, MatVecResponse{RowEnd: 2, Y: []float64{v, v}})
		sameResponse(t, ScoreResponse{RowStart: 1, RowEnd: 2, Scores: []float64{v}})
	})
}

var sinkResponse *Response

// BenchmarkEncodeRegion: one 80 × 80 region payload through OK.
func BenchmarkEncodeRegion(b *testing.B) {
	resp := wireRegion(b, 100, 180)
	b.SetBytes(int64(len(OK(resp).Body)))
	b.ReportAllocs()
	for b.Loop() {
		sinkResponse = OK(resp)
	}
}
