package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/popsim"
)

// TestRequestTimeoutReturns504 pins the deadline path: with an immediate
// request timeout the region compute is cancelled by the driver and the
// client receives 504 with a JSON error body, and the timeout counter
// moves.
func TestRequestTimeoutReturns504(t *testing.T) {
	g, err := popsim.Mosaic(120, 200, popsim.MosaicConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := New(g, Config{MaxRegionSNPs: 64, Threads: 2, RequestTimeout: time.Nanosecond})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/api/ld/region?start=0&end=60")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("504 body not JSON: %v", err)
	}
	if body.Error == "" {
		t.Fatal("504 body has no error field")
	}
	if s.metrics.timedOut.Value() == 0 {
		t.Fatal("timed_out counter did not move")
	}
}

// TestClientCancelReturns499 pins the abandoned-request path: a request
// whose context is already cancelled must not run the kernels to
// completion, and the cancellation counter must move.
func TestClientCancelReturns499(t *testing.T) {
	g, err := popsim.Mosaic(120, 200, popsim.MosaicConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := New(g, Config{MaxRegionSNPs: 64, Threads: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/api/ld/region?start=0&end=60", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if s.metrics.cancelled.Value() != 1 {
		t.Fatalf("cancelled counter %d, want 1", s.metrics.cancelled.Value())
	}
}

// TestInFlightLimiterSheds drives the semaphore middleware directly with a
// handler we can hold open, so the shed path is exercised deterministically.
func TestInFlightLimiterSheds(t *testing.T) {
	m := newMetrics()
	entered := make(chan struct{})
	release := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})
	h := inFlightLimiter(1, m)(slow)

	var wg sync.WaitGroup
	wg.Add(1)
	first := httptest.NewRecorder()
	go func() {
		defer wg.Done()
		h.ServeHTTP(first, httptest.NewRequest("GET", "/api/omega", nil))
	}()
	<-entered // the slot is provably held

	second := httptest.NewRecorder()
	h.ServeHTTP(second, httptest.NewRequest("GET", "/api/omega", nil))
	if second.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated request got %d, want 503", second.Code)
	}
	if ra := second.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", ra)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(second.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("503 body %q not a JSON error (%v)", second.Body.String(), err)
	}
	if m.shed.Value() != 1 {
		t.Fatalf("shed counter %d, want 1", m.shed.Value())
	}

	close(release)
	wg.Wait()
	if first.Code != http.StatusOK {
		t.Fatalf("admitted request got %d", first.Code)
	}
	if m.inFlight.Value() != 0 {
		t.Fatalf("in_flight %d after drain", m.inFlight.Value())
	}
}

// TestServerShedsUnderConcurrency exercises the cap through the full
// stack: with one slot and many simultaneous heavy requests, some must be
// shed and every response must be either a result or a clean 503.
func TestServerShedsUnderConcurrency(t *testing.T) {
	// The workload must hold the single slot for tens of milliseconds so
	// simultaneous clients actually collide — the fused epilogue made the
	// original 120-SNP scan finish too fast to ever overlap.
	g, err := popsim.Mosaic(300, 300, popsim.MosaicConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := New(g, Config{MaxRegionSNPs: 64, Threads: 1, MaxInFlight: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// A round can serialize by scheduling luck, so retry a few rounds;
	// across them, 12 simultaneous clients on one slot must collide.
	const clients, rounds = 12, 8
	totalOK, totalShed := 0, 0
	for round := 0; round < rounds && totalShed == 0; round++ {
		codes := make(chan int, clients)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				resp, err := http.Get(ts.URL + "/api/omega?grid=40&max_each=75")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				codes <- resp.StatusCode
			}()
		}
		close(start)
		wg.Wait()
		close(codes)
		for code := range codes {
			switch code {
			case http.StatusOK:
				totalOK++
			case http.StatusServiceUnavailable:
				totalShed++
			default:
				t.Fatalf("unexpected status %d", code)
			}
		}
	}
	if totalOK == 0 {
		t.Fatal("no request was admitted")
	}
	if totalShed == 0 {
		t.Fatalf("no request was shed across %d rounds of %d concurrent clients on 1 slot", rounds, clients)
	}
	if got := s.metrics.shed.Value(); got != int64(totalShed) {
		t.Fatalf("shed counter %d, want %d", got, totalShed)
	}
}

// TestDebugVars checks the ops surface: per-endpoint request counts,
// cancellation/timeout counters, and the kernel throughput gauge.
func TestDebugVars(t *testing.T) {
	ts, _ := testServer(t)
	if code := getJSON(t, ts.URL+"/api/ld/region?start=10&end=30", nil); code != http.StatusOK {
		t.Fatalf("region status %d", code)
	}
	var vars struct {
		Requests  map[string]int64 `json:"requests"`
		Statuses  map[string]int64 `json:"statuses"`
		Latency   map[string]int64 `json:"latency_ns"`
		InFlight  int64            `json:"in_flight"`
		Shed      int64            `json:"shed"`
		Cancelled int64            `json:"cancelled"`
		TimedOut  int64            `json:"timed_out"`
		Uptime    float64          `json:"uptime_seconds"`
		Blis      struct {
			Calls        uint64  `json:"calls"`
			GCellsPerSec float64 `json:"kernel_gcells_per_sec"`
			ArenaHitRate float64 `json:"arena_hit_rate"`
		} `json:"blis"`
	}
	// The middleware records a request after its response is written, so
	// the client can be back before the counters move: wait for the event.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if code := getJSON(t, ts.URL+"/debug/vars", &vars); code != http.StatusOK {
			t.Fatalf("vars status %d", code)
		}
		if vars.Requests["/api/ld/region"] >= 1 || time.Now().After(deadline) {
			break
		}
	}
	if vars.Requests["/api/ld/region"] < 1 {
		t.Fatalf("region request count %d", vars.Requests["/api/ld/region"])
	}
	if vars.Statuses["200"] < 1 {
		t.Fatalf("statuses %v", vars.Statuses)
	}
	if vars.Latency["/api/ld/region"] <= 0 {
		t.Fatalf("latency %v", vars.Latency)
	}
	if vars.Blis.Calls == 0 || vars.Blis.GCellsPerSec <= 0 {
		t.Fatalf("blis gauge %+v", vars.Blis)
	}
	if vars.Uptime <= 0 {
		t.Fatalf("uptime %v", vars.Uptime)
	}
}

// TestMetricsKeyedByRoute: /debug/vars keys requests and latency by the
// matched route, not the raw path, so a scanner walking a thousand
// distinct junk paths adds one "other" key instead of a thousand permanent
// ones — also under a request deadline, which hands the mux a copy of the
// request.
func TestMetricsKeyedByRoute(t *testing.T) {
	g, err := popsim.Mosaic(40, 32, popsim.MosaicConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(g, Config{RequestTimeout: time.Minute}))
	defer ts.Close()
	for i := 0; i < 1000; i++ {
		if code := getJSON(t, fmt.Sprintf("%s/a%d", ts.URL, i), nil); code != http.StatusNotFound {
			t.Fatalf("junk path status %d", code)
		}
	}
	getJSON(t, ts.URL+"/api/ld/region?start=0&end=8", nil)
	getJSON(t, ts.URL+"/api/sparse/matvec", nil) // 405 on the POST-only route
	var vars struct {
		Requests map[string]int64 `json:"requests"`
		Latency  map[string]int64 `json:"latency_ns"`
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		getJSON(t, ts.URL+"/debug/vars", &vars)
		if vars.Requests["/api/sparse/matvec"] >= 1 || time.Now().After(deadline) {
			break
		}
	}
	if vars.Requests["other"] != 1000 {
		t.Fatalf("requests[other] = %d, want 1000", vars.Requests["other"])
	}
	if vars.Requests["/api/ld/region"] != 1 || vars.Requests["/api/sparse/matvec"] != 1 {
		t.Fatalf("registered routes not keyed by their path: %v", vars.Requests)
	}
	if max := len(Definitions) + 6; len(vars.Requests) > max || len(vars.Latency) > max {
		t.Fatalf("%d request keys and %d latency keys after 1000 junk paths, want at most %d: %v",
			len(vars.Requests), len(vars.Latency), max, vars.Requests)
	}
}

// TestOmegaPeakSeededFromFirstPoint locks in the peak-selection fix: a
// scan over a monomorphic matrix has ω = 0 everywhere, and the reported
// peak must be a real grid point (the first), not the zero value.
func TestOmegaPeakSeededFromFirstPoint(t *testing.T) {
	s := New(bitmat.New(30, 64), Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	var or OmegaResponse
	if code := getJSON(t, ts.URL+"/api/omega?grid=5&max_each=10", &or); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(or.Points) == 0 {
		t.Fatal("no points")
	}
	if or.Peak == nil {
		t.Fatal("peak omitted despite points")
	}
	if or.Peak.Omega != 0 {
		t.Fatalf("peak omega %v on monomorphic data", or.Peak.Omega)
	}
	if or.Peak.Center != or.Points[0].Center || or.Peak.Center == 0 {
		t.Fatalf("peak center %d, want first grid point %d",
			or.Peak.Center, or.Points[0].Center)
	}
}

// TestComputeErrorClassification pins the 499/504/500 mapping.
func TestComputeErrorClassification(t *testing.T) {
	s := New(bitmat.New(10, 16), Config{})
	cases := []struct {
		err  error
		want int
	}{
		{context.Canceled, statusClientClosedRequest},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{errors.New("arena exploded"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		s.computeError(c.err).Write(rec)
		if rec.Code != c.want {
			t.Fatalf("%v -> %d, want %d", c.err, rec.Code, c.want)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(rec.Body).Decode(&body); err != nil || body.Error == "" {
			t.Fatalf("%v: body %q not a JSON error", c.err, rec.Body.String())
		}
	}
}

// TestParamErrorsStay400 locks in the 400-vs-500 split for the endpoints
// that used to blanket-return 400.
func TestParamErrorsStay400(t *testing.T) {
	ts, _ := testServer(t)
	for _, q := range []string{
		"/api/prune?window=1",
		"/api/prune?window=10&step=20",
		"/api/prune?r2=0",
		"/api/blocks?dprime=2",
		"/api/blocks?frac=0",
		"/api/omega?grid=0",
		"/api/omega?min_each=1",
		"/api/omega?min_each=5&max_each=3",
	} {
		if code := getJSON(t, ts.URL+q, nil); code != http.StatusBadRequest {
			t.Fatalf("%s gave %d, want 400", q, code)
		}
	}
}
