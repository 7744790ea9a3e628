package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"testing"

	"ldgemm/internal/bufpool"
)

// Under the race detector every test of the package runs with poisoned
// releases (bufpool.PoisonForTest), coordinator and in-process shards
// alike: a released buffer is overwritten and is the next one handed out
// of its class, so a strip body merged, relayed or cached after its release
// reads another request's bytes, and a double release panics.
func TestMain(m *testing.M) {
	bufpool.PoisonForTest(raceEnabled)
	os.Exit(m.Run())
}

// countingWriter is a ResponseWriter that keeps nothing but its header map
// and the length of the body, so what a request allocates is the
// coordinator's and its shards' alone.
type countingWriter struct {
	h http.Header
	n int
}

func (w *countingWriter) Header() http.Header         { return w.h }
func (w *countingWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }
func (w *countingWriter) WriteHeader(int)             {}

// TestScatterAllocBudget: a coordinator scatter of a two-strip region, with
// the cache off so every request fans out. The merged answer is a plain
// allocation — a cached or coalesced response is shared — but beyond it
// nothing grows with the region's cells: the shards' floats and replies and
// the coordinator's strip bodies are recycled. What still grows is per
// column (each shard's frequency tables), so the bound is per added cell:
// under 1 B from width 24 to 96, where unpooled it was ≈ 58 B.
func TestScatterAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	cfg := fastConfig()
	cfg.ResultCacheBytes = -1
	co := newTestCluster(t, cfg, shardServer(t, 0, 60).URL, shardServer(t, 60, 120).URL).Config.Handler

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// perRequest returns the objects and the bytes beyond the answer one
	// region request allocates, in this process: coordinator and shards.
	perRequest := func(lo, hi int) (allocs, bytes float64) {
		r := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/ld/region?start=%d&end=%d", lo, hi), nil)
		w := &countingWriter{h: http.Header{}}
		serve := func() { co.ServeHTTP(w, r) }
		serve() // first use fills the pools
		allocs = testing.AllocsPerRun(20, serve)
		const runs = 20
		var before, after runtime.MemStats
		w.n = 0
		runtime.ReadMemStats(&before)
		for range runs {
			serve()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc-uint64(w.n)) / runs
	}
	a24, b24 := perRequest(48, 72)
	a96, b96 := perRequest(12, 108)
	t.Logf("two-strip region: width 24 %.0f allocs %.0f B, width 96 %.0f allocs %.0f B beyond the answer", a24, b24, a96, b96)
	if budget := 400.0; max(a24, a96) > budget {
		t.Errorf("%.0f / %.0f allocations per scatter, budget %.0f", a24, a96, budget)
	}
	if perCell := (b96 - b24) / (96*96 - 24*24); perCell > 1 {
		t.Errorf("width 96 allocates %.0f B beyond its answer, width 24 %.0f B: %.1f B per added cell", b96, b24, perCell)
	}
}
