package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"ldgemm/internal/ldsparse"
	"ldgemm/internal/server"
)

// sparseTestStore builds one threshold-pruned store over the shared test
// matrix and opens an independent handle per caller, mirroring a real
// deployment where every shard opens the same store file.
func sparseTestStore(t testing.TB) *ldsparse.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "r.ldss")
	if _, err := ldsparse.BuildFile(path, testGenotypes(t), ldsparse.BuildOptions{
		TileSize: 32, Threshold: 0.02,
	}); err != nil {
		t.Fatal(err)
	}
	sp, err := ldsparse.Open(path, ldsparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	return sp
}

func sparseShardServer(t *testing.T, lo, hi int) *httptest.Server {
	t.Helper()
	s := server.New(testGenotypes(t), server.Config{
		Threads: 2, ShardStart: lo, ShardEnd: hi, Sparse: sparseTestStore(t),
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func postSparse(t *testing.T, url string, body any, v any) (int, http.Header) {
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
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// TestClusterSparseBitIdentity: a 3-shard cluster's matvec and score
// answers are bit-identical to one unsharded sparse-serving node, with
// and without an explicit row window.
func TestClusterSparseBitIdentity(t *testing.T) {
	single := httptest.NewServer(server.New(testGenotypes(t),
		server.Config{Threads: 2, Sparse: sparseTestStore(t)}))
	defer single.Close()
	cluster := newTestCluster(t, fastConfig(),
		sparseShardServer(t, 0, 40).URL,
		sparseShardServer(t, 40, 80).URL,
		sparseShardServer(t, 80, 120).URL)

	n := 120
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(3*i+1)) + 0.25
	}

	for _, q := range []string{"", "?rows=25:95"} {
		var want, got server.MatVecResponse
		if code, _ := postSparse(t, single.URL+"/api/sparse/matvec"+q, server.MatVecRequest{X: x}, &want); code != http.StatusOK {
			t.Fatalf("single matvec%s status %d", q, code)
		}
		if code, hdr := postSparse(t, cluster.URL+"/api/sparse/matvec"+q, server.MatVecRequest{X: x}, &got); code != http.StatusOK {
			t.Fatalf("cluster matvec%s status %d", q, code)
		} else if hdr.Get("X-LD-Shards-Failed") != "" {
			t.Fatalf("matvec%s unexpectedly partial", q)
		}
		if got.RowStart != want.RowStart || got.RowEnd != want.RowEnd || len(got.Y) != len(want.Y) {
			t.Fatalf("matvec%s window [%d,%d)×%d, want [%d,%d)×%d", q,
				got.RowStart, got.RowEnd, len(got.Y), want.RowStart, want.RowEnd, len(want.Y))
		}
		for i := range want.Y {
			if math.Float64bits(got.Y[i]) != math.Float64bits(want.Y[i]) {
				t.Fatalf("matvec%s y[%d] = %v, single %v", q, i, got.Y[i], want.Y[i])
			}
		}
	}

	var wantS, gotS server.ScoreResponse
	if code, _ := postSparse(t, single.URL+"/api/sparse/score", server.ScoreRequest{Z: x}, &wantS); code != http.StatusOK {
		t.Fatalf("single score status %d", code)
	}
	if code, _ := postSparse(t, cluster.URL+"/api/sparse/score", server.ScoreRequest{Z: x}, &gotS); code != http.StatusOK {
		t.Fatalf("cluster score status %d", code)
	}
	for i := range wantS.Scores {
		if math.Float64bits(gotS.Scores[i]) != math.Float64bits(wantS.Scores[i]) {
			t.Fatalf("scores[%d] = %v, single %v", i, gotS.Scores[i], wantS.Scores[i])
		}
	}

	// A repeated identical request is served from the result cache and
	// stays bit-identical.
	var again server.ScoreResponse
	if code, _ := postSparse(t, cluster.URL+"/api/sparse/score", server.ScoreRequest{Z: x}, &again); code != http.StatusOK {
		t.Fatalf("cached score status %d", code)
	}
	for i := range gotS.Scores {
		if math.Float64bits(again.Scores[i]) != math.Float64bits(gotS.Scores[i]) {
			t.Fatalf("cached scores[%d] differs", i)
		}
	}

	// A different vector must not hit the first vector's cache entry.
	y := make([]float64, n)
	copy(y, x)
	y[7] += 0.5
	var wantY, gotY server.MatVecResponse
	if code, _ := postSparse(t, single.URL+"/api/sparse/matvec", server.MatVecRequest{X: y}, &wantY); code != http.StatusOK {
		t.Fatalf("single matvec(y) status %d", code)
	}
	if code, _ := postSparse(t, cluster.URL+"/api/sparse/matvec", server.MatVecRequest{X: y}, &gotY); code != http.StatusOK {
		t.Fatalf("cluster matvec(y) status %d", code)
	}
	for i := range wantY.Y {
		if math.Float64bits(gotY.Y[i]) != math.Float64bits(wantY.Y[i]) {
			t.Fatalf("matvec(y) y[%d] = %v, single %v", i, gotY.Y[i], wantY.Y[i])
		}
	}
}

// TestClusterSparseValidation: bad vectors, bad windows, and wrong
// methods are rejected by the coordinator itself.
func TestClusterSparseValidation(t *testing.T) {
	cluster := newTestCluster(t, fastConfig(),
		sparseShardServer(t, 0, 60).URL, sparseShardServer(t, 60, 120).URL)

	if code, _ := postSparse(t, cluster.URL+"/api/sparse/matvec", server.MatVecRequest{X: make([]float64, 7)}, nil); code != http.StatusBadRequest {
		t.Fatalf("short vector gave %d", code)
	}
	if code, _ := postSparse(t, cluster.URL+"/api/sparse/matvec?rows=90:10", server.MatVecRequest{X: make([]float64, 120)}, nil); code != http.StatusBadRequest {
		t.Fatalf("inverted window gave %d", code)
	}
	resp, err := http.Post(cluster.URL+"/api/sparse/score", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body gave %d", resp.StatusCode)
	}
	if code, _ := get(t, cluster.URL+"/api/sparse/matvec", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET gave %d", code)
	}
}

// TestClusterSparseLostStrip: a flat vector cannot carry holes, so a
// down strip fails the whole request instead of degrading it.
func TestClusterSparseLostStrip(t *testing.T) {
	alive := sparseShardServer(t, 0, 60)
	dead := sparseShardServer(t, 60, 120)
	cluster := newTestCluster(t, fastConfig(), alive.URL, dead.URL)
	dead.Close()

	if code, _ := postSparse(t, cluster.URL+"/api/sparse/matvec", server.MatVecRequest{X: make([]float64, 120)}, nil); code != http.StatusBadGateway {
		t.Fatalf("lost strip gave %d", code)
	}
}
