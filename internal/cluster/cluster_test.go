package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/popsim"
	"ldgemm/internal/server"
)

// testGenotypes builds the shared matrix every node serves. Each caller
// gets an identical copy (same generator, same seed), mirroring a real
// deployment where every shard loads the same input file.
func testGenotypes(t testing.TB) *bitmat.Matrix {
	t.Helper()
	g, err := popsim.Mosaic(120, 200, popsim.MosaicConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func shardServer(t *testing.T, lo, hi int) *httptest.Server {
	t.Helper()
	s := server.New(testGenotypes(t), server.Config{
		MaxRegionSNPs: 128, MaxTopK: 100, Threads: 2, ShardStart: lo, ShardEnd: hi,
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func singleServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := server.New(testGenotypes(t), server.Config{MaxRegionSNPs: 128, MaxTopK: 100, Threads: 2})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

// fastConfig keeps failure paths quick in tests.
func fastConfig() Config {
	return Config{ShardTimeout: 5 * time.Second, Retries: -1, RetryBackoff: time.Millisecond,
		HedgeAfter: -1, BreakerFailures: 100}
}

func newTestCluster(t *testing.T, cfg Config, shardURLs ...string) *httptest.Server {
	t.Helper()
	co, err := New(context.Background(), shardURLs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	ts := httptest.NewServer(co)
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string, v any) (int, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
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

// TestClusterBitIdentity is the core acceptance check: a 2-shard cluster
// answers pair, region, and top queries bit-identically to one unsharded
// server over the same matrix.
func TestClusterBitIdentity(t *testing.T) {
	single := singleServer(t)
	cluster := newTestCluster(t, fastConfig(), shardServer(t, 0, 60).URL, shardServer(t, 60, 120).URL)

	// Pair lookups on both sides of the shard boundary, including a
	// cross-shard pair (owned by min(i, j)).
	for _, q := range []string{"/api/ld?i=3&j=45", "/api/ld?i=70&j=110", "/api/ld?i=30&j=90",
		"/api/ld?i=90&j=30", "/api/freq?i=59", "/api/freq?i=60"} {
		var want, got map[string]any
		if code, _ := get(t, single.URL+q, &want); code != http.StatusOK {
			t.Fatalf("single %s status %d", q, code)
		}
		if code, _ := get(t, cluster.URL+q, &got); code != http.StatusOK {
			t.Fatalf("cluster %s status %d", q, code)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cluster %v, single %v", q, got, want)
		}
	}

	// A region spanning the shard boundary, every measure.
	for _, measure := range []string{"r2", "d", "dprime"} {
		q := fmt.Sprintf("/api/ld/region?start=30&end=90&measure=%s", measure)
		var want, got server.RegionResponse
		if code, _ := get(t, single.URL+q, &want); code != http.StatusOK {
			t.Fatalf("single %s status %d", q, code)
		}
		if code, hdr := get(t, cluster.URL+q, &got); code != http.StatusOK {
			t.Fatalf("cluster %s status %d", q, code)
		} else if hdr.Get("X-LD-Shards-Failed") != "" {
			t.Fatalf("%s unexpectedly partial", q)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cluster response differs from single node", q)
		}
	}

	// Top-K ranking across the whole matrix.
	var wantTop, gotTop server.TopResponse
	if code, _ := get(t, single.URL+"/api/ld/top?k=25", &wantTop); code != http.StatusOK {
		t.Fatalf("single top status %d", code)
	}
	if code, _ := get(t, cluster.URL+"/api/ld/top?k=25", &gotTop); code != http.StatusOK {
		t.Fatalf("cluster top status %d", code)
	}
	if len(gotTop.Pairs) != 25 {
		t.Fatalf("cluster top returned %d pairs", len(gotTop.Pairs))
	}
	if !reflect.DeepEqual(gotTop, wantTop) {
		t.Fatalf("cluster top differs from single node:\n got %+v\nwant %+v", gotTop, wantTop)
	}

	// Windowed region through the coordinator matches the single node too.
	q := "/api/ld/region?start=30&end=90&rows=50:70"
	var want, got server.RegionResponse
	if code, _ := get(t, single.URL+q, &want); code != http.StatusOK {
		t.Fatalf("single %s status %d", q, code)
	}
	if code, _ := get(t, cluster.URL+q, &got); code != http.StatusOK {
		t.Fatalf("cluster %s status %d", q, code)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: windowed cluster response differs from single node", q)
	}

	// Info reports the assembled topology.
	var info InfoResponse
	if code, _ := get(t, cluster.URL+"/api/info", &info); code != http.StatusOK {
		t.Fatal("cluster info failed")
	}
	if info.SNPs != 120 || len(info.Shards) != 2 ||
		info.Shards[0].Start != 0 || info.Shards[0].End != 60 ||
		info.Shards[1].Start != 60 || info.Shards[1].End != 120 {
		t.Fatalf("cluster info %+v", info)
	}

	// Error parity: every invalid request gets the same status and a
	// byte-identical {"error":…} body from a single node, a 1-strip
	// coordinator and a 2-strip coordinator — all three parse and validate
	// through the same query definitions. The nodes here carry a sparse
	// store so the operator endpoints reject on their own grounds.
	tiers := []*httptest.Server{
		sparseShardServer(t, 0, 0),
		newTestCluster(t, fastConfig(), sparseShardServer(t, 0, 120).URL),
		newTestCluster(t, fastConfig(), sparseShardServer(t, 0, 60).URL, sparseShardServer(t, 60, 120).URL),
	}
	vector := func(key string, n int) string {
		b, _ := json.Marshal(map[string][]float64{key: make([]float64, n)})
		return string(b)
	}
	for _, c := range []struct {
		method, path, body string
		status             int
		wording            string // the node's wording, where the tiers used to differ
	}{
		// a missing parameter
		{method: "GET", path: "/api/freq", status: 400},
		{method: "GET", path: "/api/ld?i=3", status: 400},
		{method: "GET", path: "/api/ld/region?start=30", status: 400},
		// a non-integer value
		{method: "GET", path: "/api/freq?i=x", status: 400},
		{method: "GET", path: "/api/ld?i=3&j=x", status: 400},
		{method: "GET", path: "/api/ld/region?start=x&end=90", status: 400},
		{method: "GET", path: "/api/ld/region?start=30&end=90&rows=a:b", status: 400},
		{method: "GET", path: "/api/ld/region?start=30&end=90&rows=5", status: 400, wording: `parameter "rows" must be a:b, got "5"`},
		{method: "GET", path: "/api/ld/top?k=x", status: 400},
		{method: "GET", path: "/api/ld/top?rows=5", status: 400},
		{method: "POST", path: "/api/sparse/matvec?rows=1:x", body: vector("x", 120), status: 400},
		{method: "POST", path: "/api/sparse/score", body: "{nope", status: 400},
		{method: "GET", path: "/api/prune?window=x", status: 400},
		{method: "GET", path: "/api/prune?r2=x", status: 400},
		{method: "GET", path: "/api/blocks?frac=x", status: 400},
		{method: "GET", path: "/api/omega?max_each=x", status: 400},
		// an out-of-range index or value
		{method: "GET", path: "/api/freq?i=120", status: 400, wording: "i=120 outside 0..119"},
		{method: "GET", path: "/api/ld?i=0&j=999", status: 400, wording: "j=999 outside 0..119"},
		{method: "GET", path: "/api/ld?i=-1&j=5", status: 400},
		{method: "GET", path: "/api/ld/region?start=0&end=999", status: 400},
		{method: "GET", path: "/api/ld/region?start=90&end=30", status: 400},
		{method: "GET", path: "/api/prune?window=1", status: 400},
		{method: "GET", path: "/api/prune?r2=0", status: 400},
		{method: "GET", path: "/api/blocks?dprime=2", status: 400},
		{method: "GET", path: "/api/omega?grid=0", status: 400},
		{method: "GET", path: "/api/omega?min_each=100", status: 400},
		// an inverted or empty rows window
		{method: "GET", path: "/api/ld/region?start=30&end=90&rows=70:50", status: 400},
		{method: "GET", path: "/api/ld/region?start=30&end=90&rows=50:50", status: 400},
		{method: "GET", path: "/api/ld/top?rows=70:50", status: 400},
		{method: "POST", path: "/api/sparse/matvec?rows=90:10", body: vector("x", 120), status: 400},
		{method: "POST", path: "/api/sparse/score?rows=10:10", body: vector("z", 120), status: 400},
		// rows outside the region or the matrix
		{method: "GET", path: "/api/ld/region?start=30&end=90&rows=0:40", status: 400},
		{method: "GET", path: "/api/ld/region?start=30&end=90&rows=80:100", status: 400},
		{method: "GET", path: "/api/ld/top?rows=100:121", status: 400},
		{method: "POST", path: "/api/sparse/score?rows=-1:10", body: vector("z", 120), status: 400},
		// k outside 1..cap: the cap is the shards', so their verdict is relayed
		{method: "GET", path: "/api/ld/top?k=0", status: 400, wording: "k=0 outside 1..1000"},
		{method: "GET", path: "/api/ld/top?k=-3", status: 400},
		{method: "GET", path: "/api/ld/top?k=1001", status: 400},
		// an unknown measure
		{method: "GET", path: "/api/ld/region?start=30&end=90&measure=nope", status: 400},
		// a wrong-length vector
		{method: "POST", path: "/api/sparse/matvec", body: vector("x", 7), status: 400},
		{method: "POST", path: "/api/sparse/score", body: vector("z", 121), status: 400},
		{method: "POST", path: "/api/sparse/matvec", body: vector("z", 120), status: 400}, // wrong field: x is empty
		// an oversized body
		{method: "POST", path: "/api/sparse/matvec", body: vector("x", 8000), status: 413},
		// a wrong method, an unknown path
		{method: "POST", path: "/api/ld/region?start=30&end=90", status: 405},
		{method: "POST", path: "/api/freq?i=3", status: 405},
		{method: "GET", path: "/api/sparse/matvec", status: 405},
		{method: "DELETE", path: "/api/sparse/score", status: 405},
		{method: "GET", path: "/api/nope", status: 404},
	} {
		var want []byte
		for tier, ts := range tiers {
			req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			got := append([]byte(resp.Header.Get("Allow")+" "), body...)
			if resp.StatusCode != c.status {
				t.Errorf("%s %s: tier %d answered %d %s, want %d", c.method, c.path, tier, resp.StatusCode, body, c.status)
			}
			var payload struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &payload); err != nil || payload.Error == "" {
				t.Errorf("%s %s: tier %d body %q is not a JSON error", c.method, c.path, tier, body)
			}
			if c.wording != "" && payload.Error != c.wording {
				t.Errorf("%s %s: tier %d says %q, the node's wording is %q", c.method, c.path, tier, payload.Error, c.wording)
			}
			if tier == 0 {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("%s %s: tier %d answered %q, single node %q", c.method, c.path, tier, got, want)
			}
		}
	}
}

// TestClusterPartial kills one shard: scatter-gathered endpoints must
// degrade (partial: true, X-LD-Shards-Failed) instead of failing, while
// routes owned solely by the dead shard turn into 502s.
func TestClusterPartial(t *testing.T) {
	shardA := shardServer(t, 0, 60)
	shardB := shardServer(t, 60, 120)
	cluster := newTestCluster(t, fastConfig(), shardA.URL, shardB.URL)

	shardB.Close()

	var region server.RegionResponse
	code, hdr := get(t, cluster.URL+"/api/ld/region?start=30&end=90", &region)
	if code != http.StatusOK {
		t.Fatalf("degraded region status %d", code)
	}
	if !region.Partial {
		t.Fatal("degraded region not marked partial")
	}
	if failed := hdr.Get("X-LD-Shards-Failed"); failed != shardB.URL {
		t.Fatalf("X-LD-Shards-Failed = %q, want %q", failed, shardB.URL)
	}
	if len(region.Values) != 60 {
		t.Fatalf("degraded region has %d rows", len(region.Values))
	}
	for i, row := range region.Values {
		if absRow := 30 + i; absRow < 60 && row == nil {
			t.Fatalf("surviving shard's row %d is null", absRow)
		} else if absRow >= 60 && row != nil {
			t.Fatalf("dead shard's row %d is populated", absRow)
		}
	}

	var top server.TopResponse
	code, hdr = get(t, cluster.URL+"/api/ld/top?k=10", &top)
	if code != http.StatusOK {
		t.Fatalf("degraded top status %d", code)
	}
	if !top.Partial || hdr.Get("X-LD-Shards-Failed") != shardB.URL {
		t.Fatal("degraded top not marked partial")
	}
	for _, p := range top.Pairs {
		if o := min(p.I, p.J); o >= 60 {
			t.Fatalf("degraded top includes dead shard's pair (%d,%d)", p.I, p.J)
		}
	}

	// The dead shard exclusively owns pair (70, 110): no degradation
	// possible, the route fails.
	if code, _ := get(t, cluster.URL+"/api/ld?i=70&j=110", nil); code != http.StatusBadGateway {
		t.Fatalf("dead-shard pair status %d, want 502", code)
	}
	// A pair owned by the survivor still works.
	if code, _ := get(t, cluster.URL+"/api/ld?i=3&j=45", nil); code != http.StatusOK {
		t.Fatalf("surviving pair status %d", code)
	}
	// Whole-matrix proxies fail over to the survivor.
	if code, _ := get(t, cluster.URL+"/api/prune?window=20&step=5&r2=0.5", nil); code != http.StatusOK {
		t.Fatalf("proxied prune status %d", code)
	}
}

// TestClusterRelaysTerminal checks that bad requests get a JSON 4xx,
// whether the coordinator rejects them itself or relays a shard's verdict
// (k=0: the cap is the shard's) verbatim instead of retrying or masking it.
func TestClusterRelaysTerminal(t *testing.T) {
	cluster := newTestCluster(t, fastConfig(), shardServer(t, 0, 60).URL, shardServer(t, 60, 120).URL)
	cases := []struct {
		q    string
		want int
	}{
		{"/api/ld?i=0&j=999", http.StatusBadRequest},
		{"/api/ld/region?start=0&end=999", http.StatusBadRequest},
		{"/api/ld/region?start=0&end=120&measure=nope", http.StatusBadRequest},
		{"/api/ld/top?k=0", http.StatusBadRequest},
		{"/api/nope", http.StatusNotFound},
	}
	for _, c := range cases {
		resp, err := http.Get(cluster.URL + c.q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.want {
			t.Fatalf("%s status %d, want %d", c.q, resp.StatusCode, c.want)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("%s Content-Type %q", c.q, ct)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
			t.Fatalf("%s body is not a JSON error (%v)", c.q, err)
		}
		resp.Body.Close()
	}
}

// TestPartitionValidation rejects shard sets that do not tile the index
// range, and New rejects mismatched matrices.
func TestPartitionValidation(t *testing.T) {
	if _, _, err := newPartition([]server.Window{{Lo: 0, Hi: 60}, {Lo: 50, Hi: 120}}, 120); err == nil {
		t.Fatal("overlapping strips accepted")
	}
	if _, _, err := newPartition([]server.Window{{Lo: 0, Hi: 50}, {Lo: 60, Hi: 120}}, 120); err == nil {
		t.Fatal("gapped strips accepted")
	}
	if _, _, err := newPartition([]server.Window{{Lo: 0, Hi: 60}, {Lo: 60, Hi: 100}}, 120); err == nil {
		t.Fatal("short strips accepted")
	}
	if _, _, err := newPartition(nil, 120); err == nil {
		t.Fatal("empty shard set accepted")
	}
	p, order, err := newPartition([]server.Window{{Lo: 60, Hi: 120}, {Lo: 0, Hi: 60}}, 120)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{1, 0}) {
		t.Fatalf("sort order %v", order)
	}
	for row, want := range map[int]int{0: 0, 59: 0, 60: 1, 119: 1} {
		if ov := p.overlapping(row, row+1); !reflect.DeepEqual(ov, []int{want}) {
			t.Fatalf("row %d owned by %v, want strip %d", row, ov, want)
		}
	}
	if ov := p.overlapping(50, 70); !reflect.DeepEqual(ov, []int{0, 1}) {
		t.Fatalf("overlapping(50,70) = %v", ov)
	}
	if ov := p.overlapping(0, 60); !reflect.DeepEqual(ov, []int{0}) {
		t.Fatalf("overlapping(0,60) = %v", ov)
	}

	// Two shards covering only half the range each, but with a dimension
	// mismatch against each other, must fail bootstrap.
	g, err := popsim.Mosaic(100, 200, popsim.MosaicConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	other := httptest.NewServer(server.New(g, server.Config{ShardStart: 60, ShardEnd: 100}))
	defer other.Close()
	if _, err := New(context.Background(), []string{shardServer(t, 0, 60).URL, other.URL}, fastConfig()); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// TestRetry: a shard that fails twice with 503 and then recovers is
// retried transparently; the client answers 200 and counts the retries.
func TestRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()
	m := &shardMetrics{}
	c := newShardClient(ts.URL, ts.Client(), Config{Retries: 2, RetryBackoff: time.Millisecond, HedgeAfter: -1}.normalize(), m)
	rep, err := c.call(context.Background(), http.MethodGet, "/", nil, "")
	if err != nil {
		t.Fatalf("get after retries: %v", err)
	}
	if string(rep.body) != `{"ok":true}` {
		t.Fatalf("body %q", rep.body)
	}
	if got := m.retries.Value(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	if got := m.failures.Value(); got != 2 {
		t.Fatalf("failures = %d, want 2", got)
	}
}

// TestHedge: with a fixed hedge delay, a one-off slow primary loses to
// its hedge and the call returns fast.
func TestHedge(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			select { // first request stalls until the test ends
			case <-release:
			case <-r.Context().Done():
			}
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()
	defer close(release)
	m := &shardMetrics{}
	c := newShardClient(ts.URL, ts.Client(), Config{HedgeAfter: 5 * time.Millisecond, Retries: -1}.normalize(), m)
	if _, err := c.call(context.Background(), http.MethodGet, "/", nil, ""); err != nil {
		t.Fatalf("hedged get: %v", err)
	}
	if m.hedges.Value() < 1 || m.hedgeWins.Value() < 1 {
		t.Fatalf("hedges = %d, hedge wins = %d, want ≥1 each", m.hedges.Value(), m.hedgeWins.Value())
	}
}

// TestBreakerTripRecover drives the full circuit life cycle through the
// shard client: consecutive failures trip it, calls fail fast while it is
// open, and a half-open probe after the cooldown closes it again.
func TestBreakerTripRecover(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()
	m := &shardMetrics{}
	c := newShardClient(ts.URL, ts.Client(), Config{
		Retries: -1, HedgeAfter: -1, BreakerFailures: 2, BreakerCooldown: 50 * time.Millisecond,
	}.normalize(), m)

	for i := 0; i < 2; i++ {
		if _, err := c.call(context.Background(), http.MethodGet, "/", nil, ""); err == nil {
			t.Fatal("failing shard answered")
		}
	}
	if state, trips := c.breaker.snapshot(); state != breakerOpen || trips != 1 {
		t.Fatalf("after failures: state %v, trips %d", state, trips)
	}
	// Open circuit: fail fast, no network.
	before := m.requests.Value()
	if _, err := c.call(context.Background(), http.MethodGet, "/", nil, ""); err == nil {
		t.Fatal("open breaker admitted a call")
	}
	if m.requests.Value() != before {
		t.Fatal("fast-fail still hit the network")
	}
	if m.fastFails.Value() != 1 {
		t.Fatalf("fast fails = %d, want 1", m.fastFails.Value())
	}

	failing.Store(false)
	time.Sleep(60 * time.Millisecond)
	if _, err := c.call(context.Background(), http.MethodGet, "/", nil, ""); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if state, _ := c.breaker.snapshot(); state != breakerClosed {
		t.Fatalf("after recovery: state %v", state)
	}
}

// TestBreakerClock drives the state machine with a fake clock.
func TestBreakerClock(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(3, time.Minute)
	b.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if !b.allow() {
			t.Fatal("closed breaker denied a call")
		}
		b.record(false)
	}
	if state, trips := b.snapshot(); state != breakerOpen || trips != 1 {
		t.Fatalf("state %v, trips %d", state, trips)
	}
	if b.allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}
	now = now.Add(time.Minute)
	if !b.allow() {
		t.Fatal("cooled-down breaker denied the probe")
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second probe")
	}
	b.record(false) // probe failed: re-open for another cooldown
	if state, trips := b.snapshot(); state != breakerOpen || trips != 2 {
		t.Fatalf("after failed probe: state %v, trips %d", state, trips)
	}
	now = now.Add(time.Minute)
	if !b.allow() {
		t.Fatal("second probe denied")
	}
	b.record(true)
	if state, _ := b.snapshot(); state != breakerClosed {
		t.Fatalf("after successful probe: state %v", state)
	}
	if !b.allow() {
		t.Fatal("closed breaker denied a call after recovery")
	}
}

// TestMergeTop checks the k-way merge directly, ties included.
func TestMergeTop(t *testing.T) {
	p := func(i, j int, r2 float64) server.PairResponse { return server.PairResponse{I: i, J: j, R2: r2} }
	lists := [][]server.PairResponse{
		{p(0, 1, 0.9), p(0, 2, 0.5), p(1, 2, 0.5)},
		{p(5, 6, 0.9), p(5, 7, 0.7)},
		nil,
	}
	got := mergeTop(4, lists)
	want := []server.PairResponse{p(0, 1, 0.9), p(5, 6, 0.9), p(5, 7, 0.7), p(0, 2, 0.5)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge = %+v, want %+v", got, want)
	}
	if got := mergeTop(10, lists); len(got) != 5 {
		t.Fatalf("exhaustive merge returned %d pairs", len(got))
	}
}

// TestClusterProbesAndVars covers the ops surface: probes answer, and
// /debug/vars exposes the per-shard resilience counters.
func TestClusterProbesAndVars(t *testing.T) {
	shardA := shardServer(t, 0, 60)
	cluster := newTestCluster(t, fastConfig(), shardA.URL, shardServer(t, 60, 120).URL)

	for _, path := range []string{"/healthz", "/readyz"} {
		if code, _ := get(t, cluster.URL+path, nil); code != http.StatusOK {
			t.Fatalf("%s status %d", path, code)
		}
	}
	if code, _ := get(t, cluster.URL+"/api/ld?i=3&j=45", nil); code != http.StatusOK {
		t.Fatal("pair warm-up failed")
	}
	var vars struct {
		Shards map[string]struct {
			Requests     int64  `json:"requests"`
			BreakerState string `json:"breaker_state"`
		} `json:"shards"`
	}
	if code, _ := get(t, cluster.URL+"/debug/vars", &vars); code != http.StatusOK {
		t.Fatal("/debug/vars failed")
	}
	if len(vars.Shards) != 2 {
		t.Fatalf("vars list %d shards", len(vars.Shards))
	}
	sa := vars.Shards[shardA.URL]
	if sa.Requests < 1 || sa.BreakerState != "closed" {
		t.Fatalf("shard A vars %+v", sa)
	}
}
