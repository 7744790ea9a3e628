package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestLatencyRingWraparound: after the 64-slot ring wraps (100 adds),
// quantiles are computed over the most recent window, and a ring below
// rankMinSamples reports no quantile at all, so replica ranking treats
// its latency as unknown.
func TestLatencyRingWraparound(t *testing.T) {
	var l latencyRing
	for i := 1; i <= 100; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	// The ring holds samples 37ms..100ms (the most recent 64).
	if q, ok := l.quantile(0); !ok || q != 37*time.Millisecond {
		t.Fatalf("min quantile = %v ok=%t, want 37ms", q, ok)
	}
	if q, ok := l.quantile(1); !ok || q != 100*time.Millisecond {
		t.Fatalf("max quantile = %v ok=%t, want 100ms", q, ok)
	}
	// p95 over the 64-sample window: index int(0.95·63) = 59 → 96ms.
	if q, ok := l.quantile(0.95); !ok || q != 96*time.Millisecond {
		t.Fatalf("p95 = %v ok=%t, want 96ms", q, ok)
	}

	var sparse latencyRing
	for i := 0; i < rankMinSamples-1; i++ {
		sparse.add(time.Millisecond)
	}
	if _, ok := sparse.quantile(0.95); ok {
		t.Fatal("quantile reported below the minimum sample count")
	}
	sparse.add(time.Millisecond)
	if _, ok := sparse.quantile(0.95); !ok {
		t.Fatal("quantile unavailable at the minimum sample count")
	}
}

// TestBreakerIgnoresCallerCancellation: a burst of caller-cancelled
// requests interleaved with real 5xx failures must neither trip the
// breaker on its own nor reset the genuine failure streak — only
// shard-side outcomes count.
func TestBreakerIgnoresCallerCancellation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	m := &shardMetrics{}
	c := newShardClient(ts.URL, ts.Client(), Config{
		Retries: -1, BreakerFailures: 3,
	}.normalize(), m)

	// Two genuine failures: one short of the threshold.
	for i := 0; i < 2; i++ {
		if _, err := c.call(context.Background(), http.MethodGet, "/", nil, ""); err == nil {
			t.Fatal("failing shard answered")
		}
	}
	if got := m.failures.Value(); got != 2 {
		t.Fatalf("failures = %d, want 2", got)
	}

	// A burst of cancelled callers: no shard information, no outcome.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 10; i++ {
		if _, err := c.call(cancelled, http.MethodGet, "/", nil, ""); err == nil {
			t.Fatal("cancelled call answered")
		}
	}
	if state, trips := c.breaker.snapshot(); state != breakerClosed || trips != 0 {
		t.Fatalf("after cancellations: state %v trips %d, want closed/0", state, trips)
	}
	if got := m.failures.Value(); got != 2 {
		t.Fatalf("cancellations were counted as failures (failures = %d)", got)
	}

	// The cancellations also must not have reset the streak: one more
	// genuine failure reaches the threshold.
	if _, err := c.call(context.Background(), http.MethodGet, "/", nil, ""); err == nil {
		t.Fatal("failing shard answered")
	}
	if state, trips := c.breaker.snapshot(); state != breakerOpen || trips != 1 {
		t.Fatalf("after third genuine failure: state %v trips %d, want open/1", state, trips)
	}
}

// TestBreakerHalfOpenSurvivesCancelledProbe: when the probe admitted
// after the cooldown is abandoned by its caller, the breaker hands the
// probe slot back instead of wedging in half-open, and the next call
// probes again.
func TestBreakerHalfOpenSurvivesCancelledProbe(t *testing.T) {
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
		Retries: -1, BreakerFailures: 1, BreakerCooldown: 20 * time.Millisecond,
	}.normalize(), m)

	if _, err := c.call(context.Background(), http.MethodGet, "/", nil, ""); err == nil {
		t.Fatal("failing shard answered")
	}
	if state, _ := c.breaker.snapshot(); state != breakerOpen {
		t.Fatal("breaker did not open")
	}
	time.Sleep(30 * time.Millisecond)

	// The half-open probe is cancelled by its caller.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.call(cancelled, http.MethodGet, "/", nil, ""); err == nil {
		t.Fatal("cancelled probe answered")
	}
	// The shard recovers; the next call must be admitted as a fresh probe
	// rather than failing fast against a wedged half-open circuit.
	failing.Store(false)
	if _, err := c.call(context.Background(), http.MethodGet, "/", nil, ""); err != nil {
		t.Fatalf("probe after cancelled probe failed: %v", err)
	}
	if state, _ := c.breaker.snapshot(); state != breakerClosed {
		t.Fatalf("state %v after successful probe, want closed", state)
	}
}

// TestLatencyRingRecordsOnlySuccesses: fast 5xx responses must not feed
// the latency ring — a partially failing replica would otherwise drag
// its "successful round trip" p95 down and rank first in its group.
func TestLatencyRingRecordsOnlySuccesses(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()
	m := &shardMetrics{}
	c := newShardClient(ts.URL, ts.Client(), Config{
		Retries: -1, BreakerFailures: 1000,
	}.normalize(), m)

	for i := 0; i < 2*rankMinSamples; i++ {
		c.call(context.Background(), http.MethodGet, "/", nil, "")
	}
	c.lat.mu.Lock()
	n := c.lat.n
	c.lat.mu.Unlock()
	if n != 0 {
		t.Fatalf("latency ring holds %d samples from 5xx responses, want 0", n)
	}

	fail.Store(false)
	for i := 0; i < 3; i++ {
		if _, err := c.call(context.Background(), http.MethodGet, "/", nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	c.lat.mu.Lock()
	n = c.lat.n
	c.lat.mu.Unlock()
	if n != 3 {
		t.Fatalf("latency ring holds %d samples after 3 successes, want 3", n)
	}
}

// TestSlowAnswerOneRequest: a shard whose latency ring is warm with fast
// answers answers one request at least 20× slower than its p95. The call
// waits for that answer, and the shard receives exactly one request for
// it: a slow replica is ranked down by its group, never sent a duplicate.
func TestSlowAnswerOneRequest(t *testing.T) {
	var delay atomic.Int64
	var slowCalls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			slowCalls.Add(1)
			time.Sleep(time.Duration(delay.Load()))
			w.Write([]byte(`{"slow":true}`))
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()
	m := &shardMetrics{}
	c := newShardClient(ts.URL, ts.Client(), Config{}.normalize(), m)

	for i := 0; i < 2*rankMinSamples; i++ {
		if _, err := c.call(context.Background(), http.MethodGet, "/fast", nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	_, p95, known := c.health()
	if !known {
		t.Fatalf("p95 unknown after %d answers", 2*rankMinSamples)
	}
	delay.Store(int64(max(20*p95, 50*time.Millisecond)))

	rep, err := c.call(context.Background(), http.MethodGet, "/slow", nil, "")
	if err != nil {
		t.Fatalf("slow call: %v", err)
	}
	if string(rep.body) != `{"slow":true}` {
		t.Fatalf("body %q", rep.body)
	}
	if got := slowCalls.Load(); got != 1 {
		t.Fatalf("shard received %d requests for one slow answer (warm p95 %v), want 1", got, p95)
	}
	if got, want := m.requests.Value(), int64(2*rankMinSamples+1); got != want {
		t.Fatalf("requests = %d, want %d", got, want)
	}
}
