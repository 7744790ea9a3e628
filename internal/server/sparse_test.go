package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/ldsparse"
	"ldgemm/internal/popsim"
)

func sparseMatrix(t *testing.T) *bitmat.Matrix {
	t.Helper()
	g, err := popsim.Mosaic(90, 64, popsim.MosaicConfig{Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func buildSparseStore(t *testing.T, g *bitmat.Matrix, bo ldsparse.BuildOptions) *ldsparse.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "r.ldss")
	if _, err := ldsparse.BuildFile(path, g, bo); err != nil {
		t.Fatal(err)
	}
	s, err := ldsparse.Open(path, ldsparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func sparseServer(t *testing.T, cfg Config) (*httptest.Server, *Server, *ldsparse.Store) {
	t.Helper()
	g := sparseMatrix(t)
	sp := buildSparseStore(t, g, ldsparse.BuildOptions{TileSize: 16, Threshold: 0.05})
	cfg.Sparse = sp
	s := New(g, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s, sp
}

func postJSON(t *testing.T, url string, body any, v any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestSparseMatVecEndpoint: the endpoint returns exactly the store's
// MatVec, bit for bit.
func TestSparseMatVecEndpoint(t *testing.T) {
	ts, _, sp := sparseServer(t, Config{})
	n := sp.SNPs()
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(float64(i)) + 0.3
	}
	want, err := sp.MatVec(x)
	if err != nil {
		t.Fatal(err)
	}
	var resp MatVecResponse
	if code := postJSON(t, ts.URL+"/api/sparse/matvec", MatVecRequest{X: x}, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.RowStart != 0 || resp.RowEnd != n || len(resp.Y) != n {
		t.Fatalf("window [%d,%d) with %d rows", resp.RowStart, resp.RowEnd, len(resp.Y))
	}
	for i := range want {
		if math.Float64bits(resp.Y[i]) != math.Float64bits(want[i]) {
			t.Fatalf("y[%d] = %v, want %v", i, resp.Y[i], want[i])
		}
	}
}

// TestSparseMatVecRows: a rows=a:b strip returns exactly MatVecRange.
func TestSparseMatVecRows(t *testing.T) {
	ts, _, sp := sparseServer(t, Config{})
	n := sp.SNPs()
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	want, err := sp.MatVecRange(x, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	var resp MatVecResponse
	if code := postJSON(t, ts.URL+"/api/sparse/matvec?rows=10:40", MatVecRequest{X: x}, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.RowStart != 10 || resp.RowEnd != 40 {
		t.Fatalf("window [%d,%d)", resp.RowStart, resp.RowEnd)
	}
	for i := range want {
		if math.Float64bits(resp.Y[i]) != math.Float64bits(want[i]) {
			t.Fatalf("y[%d] = %v, want %v", 10+i, resp.Y[i], want[i])
		}
	}
}

// TestSparseScoreEndpoint: score = matvec of the squared z-scores.
func TestSparseScoreEndpoint(t *testing.T) {
	ts, _, sp := sparseServer(t, Config{})
	n := sp.SNPs()
	z := make([]float64, n)
	for i := range z {
		z[i] = math.Sin(float64(2*i + 1))
	}
	want, err := sp.Score(z)
	if err != nil {
		t.Fatal(err)
	}
	var resp ScoreResponse
	if code := postJSON(t, ts.URL+"/api/sparse/score", ScoreRequest{Z: z}, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for i := range want {
		if math.Float64bits(resp.Scores[i]) != math.Float64bits(want[i]) {
			t.Fatalf("scores[%d] = %v, want %v", i, resp.Scores[i], want[i])
		}
	}
}

// TestSparseEndpointValidation: missing store, wrong vector length, bad
// windows, and wrong methods map to the right statuses.
func TestSparseEndpointValidation(t *testing.T) {
	ts, _, sp := sparseServer(t, Config{})
	n := sp.SNPs()
	if code := postJSON(t, ts.URL+"/api/sparse/matvec", MatVecRequest{X: make([]float64, n-1)}, nil); code != http.StatusBadRequest {
		t.Fatalf("short vector gave %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/sparse/matvec?rows=40:10", MatVecRequest{X: make([]float64, n)}, nil); code != http.StatusBadRequest {
		t.Fatalf("inverted window gave %d", code)
	}
	resp, err := http.Post(ts.URL+"/api/sparse/matvec", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body gave %d", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/api/sparse/matvec", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET gave %d", code)
	}

	// A server without a sparse store answers 404.
	g := sparseMatrix(t)
	bare := httptest.NewServer(New(g, Config{}))
	defer bare.Close()
	if code := postJSON(t, bare.URL+"/api/sparse/matvec", MatVecRequest{X: make([]float64, g.SNPs)}, nil); code != http.StatusNotFound {
		t.Fatalf("no-store matvec gave %d", code)
	}
}

// TestSparseFingerprintGate: a sparse store from a different dataset is
// silently ignored at construction.
func TestSparseFingerprintGate(t *testing.T) {
	g := sparseMatrix(t)
	other, err := popsim.Mosaic(90, 64, popsim.MosaicConfig{Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	sp := buildSparseStore(t, other, ldsparse.BuildOptions{TileSize: 16})
	s := New(g, Config{Sparse: sp})
	if s.sparse != nil {
		t.Fatal("mismatched sparse store was accepted")
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	var info InfoResponse
	if code := getJSON(t, ts.URL+"/api/info", &info); code != http.StatusOK || info.Sparse != nil {
		t.Fatalf("info %d %+v", code, info.Sparse)
	}
}

// TestSparseShardStrips: sharded servers answer only their owned strip
// by default and 421 misrouted windows; the strips reassemble to the
// full matvec.
func TestSparseShardStrips(t *testing.T) {
	g := sparseMatrix(t)
	sp := buildSparseStore(t, g, ldsparse.BuildOptions{TileSize: 16, Threshold: 0.03})
	n := sp.SNPs()
	x := make([]float64, n)
	for i := range x {
		x[i] = float64((i*7)%11) / 3
	}
	full, err := sp.MatVec(x)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, strip := range [][2]int{{0, 30}, {30, 60}, {60, 90}} {
		shard := httptest.NewServer(New(g, Config{Sparse: sp, ShardStart: strip[0], ShardEnd: strip[1]}))
		var resp MatVecResponse
		if code := postJSON(t, shard.URL+"/api/sparse/matvec", MatVecRequest{X: x}, &resp); code != http.StatusOK {
			t.Fatalf("shard %v status %d", strip, code)
		}
		if resp.RowStart != strip[0] || resp.RowEnd != strip[1] {
			t.Fatalf("shard %v served [%d,%d)", strip, resp.RowStart, resp.RowEnd)
		}
		got = append(got, resp.Y...)
		if code := postJSON(t, shard.URL+"/api/sparse/matvec?rows=0:90", MatVecRequest{X: x}, nil); code != http.StatusMisdirectedRequest {
			t.Fatalf("misrouted window gave %d", code)
		}
		shard.Close()
	}
	for i := range full {
		if math.Float64bits(got[i]) != math.Float64bits(full[i]) {
			t.Fatalf("reassembled y[%d] = %v, full %v", i, got[i], full[i])
		}
	}
}

// TestSparseMetrics: sparse requests move sparse_served and the sparse
// counter map on /debug/vars, which also reports the resident row layout.
func TestSparseMetrics(t *testing.T) {
	ts, _, sp := sparseServer(t, Config{})
	x := make([]float64, sp.SNPs())
	if code := postJSON(t, ts.URL+"/api/sparse/matvec", MatVecRequest{X: x}, nil); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var vars struct {
		SparseServed int64 `json:"sparse_served"`
		Sparse       struct {
			MatVecs       uint64 `json:"matvecs"`
			ResidentBytes int64  `json:"resident_bytes"`
		} `json:"sparse"`
	}
	if code := getJSON(t, ts.URL+"/debug/vars", &vars); code != http.StatusOK {
		t.Fatalf("vars status %d", code)
	}
	if vars.SparseServed != 1 {
		t.Fatalf("sparse_served = %d", vars.SparseServed)
	}
	if vars.Sparse.MatVecs == 0 {
		t.Fatal("sparse.matvecs did not move")
	}
	if info := sp.Info(); !info.Resident || vars.Sparse.ResidentBytes != info.ResidentBytes || info.ResidentBytes == 0 {
		t.Fatalf("sparse.resident_bytes = %d, store reports %+v", vars.Sparse.ResidentBytes, info)
	}
}

// TestSparseVectorCounters: concurrent matvecs in both spellings — the one
// body the wire scanner takes and a pretty-printed one it leaves to
// encoding/json — answer alike and move sparse_vectors_scanned and
// sparse_vectors_json by one each on /debug/vars. The server leg of the race
// tier for the counters and the reader.
func TestSparseVectorCounters(t *testing.T) {
	ts, _, sp := sparseServer(t, Config{})
	x := make([]float64, sp.SNPs())
	for i := range x {
		x[i] = math.Sin(float64(i)) * 3
	}
	compact, _ := json.Marshal(MatVecRequest{X: x})
	pretty, _ := json.MarshalIndent(MatVecRequest{X: x}, "", " ")
	type counters struct {
		Scanned int64 `json:"sparse_vectors_scanned"`
		JSON    int64 `json:"sparse_vectors_json"`
	}
	var before, after counters
	if code := getJSON(t, ts.URL+"/debug/vars", &before); code != http.StatusOK {
		t.Fatalf("vars status %d", code)
	}
	const each = 6
	replies := make([][]byte, 2*each)
	var wg sync.WaitGroup
	for r := range replies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := compact
			if r%2 == 1 {
				body = pretty
			}
			resp, err := http.Post(ts.URL+"/api/sparse/matvec", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if replies[r], err = io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("status %d, %v", resp.StatusCode, err)
			}
		}()
	}
	wg.Wait()
	for r := range replies {
		if !bytes.Equal(replies[r], replies[0]) {
			t.Fatalf("reply %d differs from reply 0", r)
		}
	}
	if code := getJSON(t, ts.URL+"/debug/vars", &after); code != http.StatusOK {
		t.Fatalf("vars status %d", code)
	}
	if after.Scanned-before.Scanned != each || after.JSON-before.JSON != each {
		t.Fatalf("%d bodies of each spelling moved sparse_vectors_scanned by %d and sparse_vectors_json by %d",
			each, after.Scanned-before.Scanned, after.JSON-before.JSON)
	}
}
