package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldgemm/internal/server"
)

// countingShard wraps a shard server, counting (and optionally delaying)
// the heavy LD endpoints so tests can assert how many round trips the
// coordinator actually made.
func countingShard(t *testing.T, lo, hi int, delay time.Duration) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	s := server.New(testGenotypes(t), server.Config{
		MaxRegionSNPs: 128, MaxTopK: 100, Threads: 2, ShardStart: lo, ShardEnd: hi,
	})
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/api/ld") {
			calls.Add(1)
			if delay > 0 {
				time.Sleep(delay)
			}
		}
		s.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

// clusterVars decodes the counters the cache/coalesce tests assert on.
type clusterVars struct {
	CacheHits      int64 `json:"result_cache_hits"`
	CacheMisses    int64 `json:"result_cache_misses"`
	CacheBytes     int64 `json:"result_cache_bytes"`
	CacheEvictions int64 `json:"result_cache_evictions"`
	Coalesced      int64 `json:"coalesced_requests"`
}

func readVars(t *testing.T, base string) clusterVars {
	t.Helper()
	var v clusterVars
	if code, _ := get(t, base+"/debug/vars", &v); code != http.StatusOK {
		t.Fatal("/debug/vars failed")
	}
	return v
}

// TestResultCacheServesRepeats: a repeated identical region request is
// answered from the result cache with zero shard round trips and an
// identical body.
func TestResultCacheServesRepeats(t *testing.T) {
	shardA, callsA := countingShard(t, 0, 60, 0)
	shardB, callsB := countingShard(t, 60, 120, 0)
	cluster := newTestCluster(t, fastConfig(), shardA.URL, shardB.URL)

	fetch := func(q string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(cluster.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	for _, q := range []string{"/api/ld/region?start=30&end=90&measure=r2", "/api/ld/top?k=15", "/api/ld?i=3&j=45"} {
		code, first := fetch(q)
		if code != http.StatusOK {
			t.Fatalf("%s status %d", q, code)
		}
		before := callsA.Load() + callsB.Load()
		code, second := fetch(q)
		if code != http.StatusOK {
			t.Fatalf("%s repeat status %d", q, code)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s cached body differs from computed body", q)
		}
		if after := callsA.Load() + callsB.Load(); after != before {
			t.Fatalf("%s repeat reached the shards (%d new round trips)", q, after-before)
		}
	}

	v := readVars(t, cluster.URL)
	if v.CacheHits != 3 {
		t.Fatalf("result_cache_hits = %d, want 3", v.CacheHits)
	}
	if v.CacheMisses < 3 {
		t.Fatalf("result_cache_misses = %d, want ≥3", v.CacheMisses)
	}
	if v.CacheBytes <= 0 {
		t.Fatalf("result_cache_bytes = %d, want > 0", v.CacheBytes)
	}
}

// TestResultCacheKeysOnParsedQuery: the cache and coalesce key is the
// parsed query's canonical spelling, not the raw query string, so a
// second spelling of a request — a default written out, the full window
// written out, parameters reordered — is a cache hit with zero shard
// round trips; and a request the definitions reject never reaches a shard.
func TestResultCacheKeysOnParsedQuery(t *testing.T) {
	shardA, callsA := countingShard(t, 0, 60, 0)
	shardB, callsB := countingShard(t, 60, 120, 0)
	cluster := newTestCluster(t, fastConfig(), shardA.URL, shardB.URL)
	fetch := func(q string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(cluster.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	hits := int64(0)
	for _, spellings := range [][]string{
		{"/api/ld/region?start=30&end=90", "/api/ld/region?start=30&end=90&measure=r2",
			"/api/ld/region?start=30&end=90&measure=", "/api/ld/region?start=30&end=90&rows=30:90",
			"/api/ld/region?measure=r2&rows=30:90&end=90&start=30"},
		{"/api/ld/top", "/api/ld/top?k=20", "/api/ld/top?k=20&rows=0:120"},
		{"/api/ld?i=3&j=45", "/api/ld?j=45&i=3"},
	} {
		code, first := fetch(spellings[0])
		if code != http.StatusOK {
			t.Fatalf("%s status %d", spellings[0], code)
		}
		before := callsA.Load() + callsB.Load()
		for _, q := range spellings[1:] {
			code, body := fetch(q)
			if code != http.StatusOK || !bytes.Equal(body, first) {
				t.Fatalf("%s: status %d, body %q; %s answered %q", q, code, body, spellings[0], first)
			}
			if after := callsA.Load() + callsB.Load(); after != before {
				t.Fatalf("%s reached the shards (%d round trips) after %s was cached", q, after-before, spellings[0])
			}
			hits++
		}
	}
	if v := readVars(t, cluster.URL); v.CacheHits != hits {
		t.Fatalf("result_cache_hits = %d, want %d", v.CacheHits, hits)
	}

	before := callsA.Load() + callsB.Load()
	if code, body := fetch("/api/ld/region?start=30&end=90&measure=nope"); code != http.StatusBadRequest {
		t.Fatalf("unknown measure: status %d %s", code, body)
	}
	if after := callsA.Load() + callsB.Load(); after != before {
		t.Fatalf("unknown measure fanned out to the shards (%d round trips)", after-before)
	}
}

// TestResultCacheSkipsPartial: a degraded (partial) answer must never be
// admitted — the next identical request re-scatters and heals once the
// strip returns.
func TestResultCacheSkipsPartial(t *testing.T) {
	shardA, callsA := countingShard(t, 0, 60, 0)
	shardB := shardServer(t, 60, 120)
	cluster := newTestCluster(t, fastConfig(), shardA.URL, shardB.URL)
	shardB.Close()

	q := "/api/ld/region?start=30&end=90"
	var first map[string]any
	if code, _ := get(t, cluster.URL+q, &first); code != http.StatusOK {
		t.Fatalf("degraded region status %d", code)
	}
	if partial, _ := first["partial"].(bool); !partial {
		t.Fatal("degraded region not marked partial")
	}
	before := callsA.Load()
	var second map[string]any
	if code, _ := get(t, cluster.URL+q, &second); code != http.StatusOK {
		t.Fatalf("repeat degraded region status %d", code)
	}
	if callsA.Load() == before {
		t.Fatal("partial response was served from the cache")
	}
}

// TestCoalesceConcurrentIdentical: N concurrent identical region
// requests reach the shard exactly once; every caller gets the same
// bytes. The cache is disabled so the assertion is strictly about
// in-flight coalescing.
func TestCoalesceConcurrentIdentical(t *testing.T) {
	shardA, callsA := countingShard(t, 0, 60, 300*time.Millisecond)
	shardB, callsB := countingShard(t, 60, 120, 0)
	cfg := fastConfig()
	cfg.ResultCacheBytes = -1
	cluster := newTestCluster(t, cfg, shardA.URL, shardB.URL)

	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Get(cluster.URL + "/api/ld/region?start=5&end=40")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
		}()
	}
	close(start)
	wg.Wait()

	// The region lives entirely in strip A: exactly one scatter, no
	// traffic to strip B.
	if got := callsA.Load(); got != 1 {
		t.Fatalf("shard A saw %d region calls, want 1", got)
	}
	if got := callsB.Load(); got != 0 {
		t.Fatalf("shard B saw %d calls, want 0", got)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("caller %d got different bytes", i)
		}
	}
	if v := readVars(t, cluster.URL); v.Coalesced != n-1 {
		t.Fatalf("coalesced_requests = %d, want %d", v.Coalesced, n-1)
	}
}

// TestResultCacheAdmission drives the LRU unit directly: byte budget,
// oversize rejection, LRU eviction order, and replacement accounting.
func TestResultCacheAdmission(t *testing.T) {
	body := func(n int) *server.Response {
		return &server.Response{Status: http.StatusOK, Body: bytes.Repeat([]byte("x"), n)}
	}
	c := newResultCache(8 << 10) // 8 KiB, max entry 1 KiB

	// Oversize entries are refused.
	c.put("big", body(2<<10))
	if _, ok := c.get("big"); ok {
		t.Fatal("oversize entry admitted")
	}
	if s := c.stats(); s.Rejected != 1 || s.Bytes != 0 {
		t.Fatalf("after oversize put: %+v", s)
	}

	// Fill past the budget: the oldest entries are evicted.
	for i := 0; i < 20; i++ {
		c.put(fmt.Sprintf("k%d", i), body(512))
	}
	s := c.stats()
	if s.Bytes > 8<<10 {
		t.Fatalf("cache bytes %d over budget", s.Bytes)
	}
	if s.Evictions == 0 {
		t.Fatal("no evictions despite overflow")
	}
	if _, ok := c.get("k0"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := c.get("k19"); !ok {
		t.Fatal("newest entry was evicted")
	}

	// get refreshes recency: touch an old survivor, add pressure, and the
	// untouched sibling goes first.
	var kept string
	for i := 19; i >= 0; i-- {
		if _, ok := c.get(fmt.Sprintf("k%d", i)); ok {
			kept = fmt.Sprintf("k%d", i)
		}
	}
	c.get(kept)
	for i := 20; i < 30; i++ {
		c.put(fmt.Sprintf("k%d", i), body(512))
	}
	if _, ok := c.get(kept); !ok {
		t.Fatalf("recently-touched entry %s evicted before colder ones", kept)
	}

	// Replacement keeps accounting exact.
	before := c.stats().Bytes
	c.put(kept, body(600))
	if diff := c.stats().Bytes - before; diff != 600-512 {
		t.Fatalf("replacement changed bytes by %d, want %d", diff, 600-512)
	}
}

// TestFlightGroupSharesLeader drives the singleflight unit: concurrent
// callers for one key run fn once; a later caller runs it again.
func TestFlightGroupSharesLeader(t *testing.T) {
	g := newFlightGroup()
	var runs atomic.Int64
	gate := make(chan struct{})
	fn := func() *server.Response {
		runs.Add(1)
		<-gate
		return &server.Response{Status: http.StatusOK, Body: []byte("r")}
	}
	const n = 6
	var wg sync.WaitGroup
	sharedCount := atomic.Int64{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, shared := g.do("key", fn)
			if string(resp.Body) != "r" {
				t.Error("wrong response")
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Let every goroutine reach the flight group before releasing the
	// leader; followers park on the done channel.
	for int(sharedCount.Load())+int(runs.Load()) == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", runs.Load())
	}
	if sharedCount.Load() != n-1 {
		t.Fatalf("%d callers shared, want %d", sharedCount.Load(), n-1)
	}
	// After completion the key is free again.
	if _, shared := g.do("key", func() *server.Response { runs.Add(1); return &server.Response{} }); shared {
		t.Fatal("fresh call reported shared")
	}
	if runs.Load() != 2 {
		t.Fatalf("fresh call did not run fn")
	}
}
