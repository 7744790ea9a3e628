package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"ldgemm/internal/popsim"
	"ldgemm/internal/server"
)

// replicaSpec joins shard URLs into one replica-group spec.
func replicaSpec(urls ...string) string {
	spec := urls[0]
	for _, u := range urls[1:] {
		spec += "|" + u
	}
	return spec
}

// TestReplicaFailoverBitIdentity is the replica-tier acceptance check: a
// 2-strip × 2-replica cluster with one replica killed mid-run keeps
// answering pair/region/top completely (no partial: true) and
// bit-identically to a single node. The cache is disabled so every
// request exercises live routing, not a stored body.
func TestReplicaFailoverBitIdentity(t *testing.T) {
	single := singleServer(t)
	a1 := shardServer(t, 0, 60)
	a2 := shardServer(t, 0, 60)
	b1 := shardServer(t, 60, 120)
	b2 := shardServer(t, 60, 120)
	cfg := fastConfig()
	cfg.ResultCacheBytes = -1
	cluster := newTestCluster(t, cfg, replicaSpec(a1.URL, a2.URL), replicaSpec(b1.URL, b2.URL))

	queries := []string{
		"/api/ld?i=3&j=45", "/api/ld?i=70&j=110", "/api/ld?i=30&j=90",
		"/api/ld/region?start=30&end=90&measure=r2",
		"/api/ld/region?start=70&end=110",
		"/api/ld/top?k=25",
	}
	check := func(phase string) {
		t.Helper()
		for _, q := range queries {
			var want, got map[string]any
			if code, _ := get(t, single.URL+q, &want); code != http.StatusOK {
				t.Fatalf("%s: single %s status %d", phase, q, code)
			}
			code, hdr := get(t, cluster.URL+q, &got)
			if code != http.StatusOK {
				t.Fatalf("%s: cluster %s status %d", phase, q, code)
			}
			if hdr.Get("X-LD-Shards-Failed") != "" {
				t.Fatalf("%s: %s marked partial with a live replica remaining", phase, q)
			}
			if partial, _ := got["partial"].(bool); partial {
				t.Fatalf("%s: %s partial: true with a live replica remaining", phase, q)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s cluster response differs from single node", phase, q)
			}
		}
	}

	check("all replicas up")

	// Kill one replica of each strip: every strip still has a survivor,
	// so nothing may degrade. The first dies mid-run — its live
	// connections severed from another goroutine while passes are in
	// flight, as a process death would — the second between passes. Then
	// repeat to let breakers and rotation see the dead replicas more than
	// once.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		a2.CloseClientConnections()
		a2.Close()
	}()
	for dying := true; dying; {
		select {
		case <-killed:
			dying = false
		default:
		}
		check("replica dying mid-run")
	}
	b1.Close()
	for i := 0; i < 3; i++ {
		check(fmt.Sprintf("one replica down, pass %d", i))
	}

	// Kill the second replica of strip B: now the strip is lost and
	// region/top degrade to partial while strip-A pairs still answer.
	b2.Close()
	var region server.RegionResponse
	code, hdr := get(t, cluster.URL+"/api/ld/region?start=30&end=90", &region)
	if code != http.StatusOK || !region.Partial {
		t.Fatalf("lost strip: region status %d partial %t", code, region.Partial)
	}
	if failed := hdr.Get("X-LD-Shards-Failed"); failed != b1.URL+"|"+b2.URL {
		t.Fatalf("X-LD-Shards-Failed = %q, want %q", failed, b1.URL+"|"+b2.URL)
	}
	if code, _ := get(t, cluster.URL+"/api/ld?i=70&j=110", nil); code != http.StatusBadGateway {
		t.Fatalf("lost-strip pair status %d, want 502", code)
	}
	if code, _ := get(t, cluster.URL+"/api/ld?i=3&j=45", nil); code != http.StatusOK {
		t.Fatal("surviving strip stopped answering")
	}
}

// TestReplicaBootstrapValidation: replicas within a group must advertise
// identical shard ranges and identical dataset fingerprints.
func TestReplicaBootstrapValidation(t *testing.T) {
	// Range mismatch inside one group.
	_, err := New(context.Background(),
		[]string{replicaSpec(shardServer(t, 0, 60).URL, shardServer(t, 0, 50).URL), shardServer(t, 60, 120).URL},
		fastConfig())
	if err == nil {
		t.Fatal("replica group with mismatched shard ranges accepted")
	}

	// Fingerprint mismatch: same dimensions, different dataset.
	g, err2 := popsim.Mosaic(120, 200, popsim.MosaicConfig{Seed: 42})
	if err2 != nil {
		t.Fatal(err2)
	}
	other := httptest.NewServer(server.New(g, server.Config{ShardStart: 0, ShardEnd: 60}))
	defer other.Close()
	_, err = New(context.Background(),
		[]string{replicaSpec(shardServer(t, 0, 60).URL, other.URL), shardServer(t, 60, 120).URL},
		fastConfig())
	if err == nil {
		t.Fatal("replica group with mismatched fingerprints accepted")
	}

	// Empty group spec.
	if _, err := New(context.Background(), []string{""}, fastConfig()); err == nil {
		t.Fatal("empty group spec accepted")
	}
	if _, err := New(context.Background(), nil, fastConfig()); err == nil {
		t.Fatal("empty shard list accepted")
	}
}

// TestReplicaInfoTopology: /api/info lists the replicas of each strip.
func TestReplicaInfoTopology(t *testing.T) {
	a1 := shardServer(t, 0, 60)
	a2 := shardServer(t, 0, 60)
	b := shardServer(t, 60, 120)
	cluster := newTestCluster(t, fastConfig(), replicaSpec(a1.URL, a2.URL), b.URL)

	var info InfoResponse
	if code, _ := get(t, cluster.URL+"/api/info", &info); code != http.StatusOK {
		t.Fatal("cluster info failed")
	}
	if len(info.Shards) != 2 {
		t.Fatalf("info lists %d strips", len(info.Shards))
	}
	if info.Fingerprint == "" {
		t.Fatal("cluster info missing dataset fingerprint")
	}
	if got := len(info.Shards[0].Replicas); got != 2 {
		t.Fatalf("strip 0 lists %d replicas, want 2", got)
	}
	if info.Shards[0].Replicas[0].URL != a1.URL || info.Shards[0].Replicas[1].URL != a2.URL {
		t.Fatalf("strip 0 replicas %+v", info.Shards[0].Replicas)
	}
	if len(info.Shards[1].Replicas) != 0 {
		t.Fatal("single-replica strip should omit the replicas list")
	}
}

// TestReplicaRankedRouting drives the health ranking directly: an open
// breaker demotes a replica, a clearly slower p95 demotes a replica, and
// equally healthy replicas rotate.
func TestReplicaRankedRouting(t *testing.T) {
	hc := &http.Client{}
	cfg := fastConfig().normalize()
	mk := func(base string) *shardClient {
		return newShardClient(base, hc, cfg, &shardMetrics{})
	}
	fast, slow := mk("http://fast"), mk("http://slow")
	for i := 0; i < 2*rankMinSamples; i++ {
		fast.lat.add(10 * time.Millisecond)
		slow.lat.add(100 * time.Millisecond)
	}
	g := &replicaGroup{replicas: []*shardClient{slow, fast}}
	for i := 0; i < 4; i++ {
		if got := g.ranked()[0]; got != fast {
			t.Fatalf("pass %d: ranked[0] = %s, want the fast replica", i, got.base)
		}
	}

	// An open breaker beats any latency edge.
	for i := 0; i < cfg.BreakerFailures; i++ {
		fast.breaker.record(false)
	}
	if state, _ := fast.breaker.snapshot(); state != breakerOpen {
		t.Fatal("breaker setup failed")
	}
	if got := g.ranked()[0]; got != slow {
		t.Fatalf("ranked[0] = %s, want the slow-but-closed replica", got.base)
	}

	// Equal health (no latency window yet): rotation alternates.
	x, y := mk("http://x"), mk("http://y")
	rot := &replicaGroup{replicas: []*shardClient{x, y}}
	seen := map[string]int{}
	for i := 0; i < 10; i++ {
		seen[rot.ranked()[0].base]++
	}
	if seen["http://x"] == 0 || seen["http://y"] == 0 {
		t.Fatalf("rotation pinned to one replica: %v", seen)
	}
}
