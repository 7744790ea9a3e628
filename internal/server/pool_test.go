package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/bufpool"
	"ldgemm/internal/ldsparse"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/popsim"
)

// Under the race detector every test of the package runs with poisoned
// releases (bufpool.PoisonForTest): a released buffer is overwritten and is
// the next one handed out of its class, so a reply or a result read after
// its release reads another request's bytes, and a double release panics.
func TestMain(m *testing.M) {
	bufpool.PoisonForTest(raceEnabled)
	os.Exit(m.Run())
}

// sinkWriter is a ResponseWriter that keeps nothing but its header map, so
// what a request allocates is the server's alone.
type sinkWriter struct{ h http.Header }

func (w *sinkWriter) Header() http.Header         { return w.h }
func (w *sinkWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *sinkWriter) WriteHeader(int)             {}

// perRequest serves the request newReq builds through h and returns what
// one request allocates: objects (testing.AllocsPerRun) and bytes. The
// collector is off while it measures, so the pools keep what they hold,
// and there is one P: a sync.Pool keeps a Put per P, and a request that
// moved to another P would miss what the last one left.
func perRequest(t *testing.T, h http.Handler, newReq func() *http.Request) (allocs, bytes float64) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := &sinkWriter{h: http.Header{}}
	serve := func() {
		h.ServeHTTP(w, newReq())
	}
	serve() // first use fills the pools and the tile cache
	allocs = testing.AllocsPerRun(20, serve)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		serve()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

func get(path string) func() *http.Request {
	r := httptest.NewRequest(http.MethodGet, path, nil)
	return func() *http.Request { return r }
}

// budgetMatrix is the cohort the budgets are measured on.
func budgetMatrix(tb testing.TB) *bitmat.Matrix {
	tb.Helper()
	g, err := popsim.Mosaic(256, 128, popsim.MosaicConfig{Seed: 21})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// denseStore builds and opens an r² tile store of g at tile size 32.
func denseStore(tb testing.TB, g *bitmat.Matrix) *ldstore.Store {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "b.ldts")
	if _, err := ldstore.BuildFile(path, g, ldstore.BuildOptions{TileSize: 32}); err != nil {
		tb.Fatal(err)
	}
	st, err := ldstore.Open(path, ldstore.Options{CacheTiles: 1024})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	return st
}

// TestServeAllocBudgets: what a node allocates per request, with its
// replies, result floats, tile payloads and request vectors recycled. A
// region's bytes do not grow with it: widths 32 and 128 (16× the cells)
// stay within 2 KiB of each other, from the GEMM and from store tiles;
// unpooled, each cell cost ≈ 26 bytes of reply and 8 of floats.
func TestServeAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g := budgetMatrix(t)
	st := denseStore(t, g)
	sparse := filepath.Join(t.TempDir(), "b.ldss")
	if _, err := ldsparse.BuildFile(sparse, g, ldsparse.BuildOptions{TileSize: 32, Threshold: 0.05}); err != nil {
		t.Fatal(err)
	}
	sp, err := ldsparse.Open(sparse, ldsparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	compute := New(g, Config{Threads: 1})
	stored := New(g, Config{Threads: 1, Store: st, Sparse: sp})

	region := func(h http.Handler, width int) (float64, float64) {
		return perRequest(t, h, get(fmt.Sprintf("/api/ld/region?start=40&end=%d", 40+width)))
	}
	for _, c := range []struct {
		name   string
		h      http.Handler
		allocs float64
	}{{"compute", compute, 60}, {"store", stored, 40}} {
		a32, b32 := region(c.h, 32)
		a128, b128 := region(c.h, 128)
		t.Logf("%s region: width 32 %.0f allocs %.0f B, width 128 %.0f allocs %.0f B", c.name, a32, b32, a128, b128)
		if max(a32, a128) > c.allocs {
			t.Errorf("%s region: %.0f / %.0f allocations per request, budget %.0f", c.name, a32, a128, c.allocs)
		}
		if b128-b32 > 2048 {
			t.Errorf("%s region: width 128 allocates %.0f B per request, width 32 %.0f B: the region's size leaks into the bytes", c.name, b128, b32)
		}
	}

	x := make([]float64, g.SNPs)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	body, err := json.Marshal(MatVecRequest{X: x})
	if err != nil {
		t.Fatal(err)
	}
	post := httptest.NewRequest(http.MethodPost, "/api/sparse/matvec", nil)
	matvec := func() *http.Request {
		post.Body, post.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
		return post
	}
	for _, c := range []struct {
		name          string
		h             http.Handler
		req           func() *http.Request
		allocs, bytes float64
	}{
		{"matvec", stored, matvec, 60, 4096},
		{"top", compute, get("/api/ld/top?k=10&rows=0:64"), 250, 32 << 10},
		{"top from store", stored, get("/api/ld/top?k=10&rows=0:64"), 150, 16 << 10},
	} {
		allocs, bytes := perRequest(t, c.h, c.req)
		t.Logf("%s: %.0f allocs %.0f B per request", c.name, allocs, bytes)
		if allocs > c.allocs || bytes > c.bytes {
			t.Errorf("%s: %.0f allocations, %.0f B per request; budget %.0f, %.0f B", c.name, allocs, bytes, c.allocs, c.bytes)
		}
	}
}

// BenchmarkServeRegion: one 128-wide region through the node's mux onto a
// ResponseRecorder whose body buffer is reused, computed and read from a
// tile store. With -benchmem, B/op is what a request allocates once its
// floats, reply and tile payloads are recycled.
func BenchmarkServeRegion(b *testing.B) {
	g := budgetMatrix(b)
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"compute", Config{Threads: 1}}, {"store", Config{Threads: 1, Store: denseStore(b, g)}}} {
		b.Run(c.name, func(b *testing.B) {
			h := New(g, c.cfg)
			req := httptest.NewRequest(http.MethodGet, "/api/ld/region?start=40&end=168", nil)
			var body bytes.Buffer
			serve := func() {
				body.Reset()
				rec := &httptest.ResponseRecorder{HeaderMap: http.Header{}, Body: &body, Code: http.StatusOK}
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, body.Bytes())
				}
			}
			serve() // fills the pools and the tile cache, so even -benchtime 1x reads the budget
			b.ReportAllocs()
			for b.Loop() {
				serve()
			}
			b.SetBytes(int64(body.Len()))
		})
	}
}
