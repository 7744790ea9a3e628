package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"strings"

	"ldgemm/internal/kernel"
	"ldgemm/internal/ldsparse"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/popcount"
	"ldgemm/internal/popsim"
	"ldgemm/internal/seqio"
)

func writeServerDataset(t *testing.T, gz bool) string {
	t.Helper()
	m, err := popsim.Mosaic(50, 40, popsim.MosaicConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	name := "d.ldgm"
	if gz {
		name += ".gz"
	}
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if gz {
		zw := gzip.NewWriter(f)
		if err := seqio.WriteBinary(zw, m); err != nil {
			t.Fatal(err)
		}
		zw.Close()
	} else if err := seqio.WriteBinary(f, m); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSetupServesInfo(t *testing.T) {
	for _, gz := range []bool{false, true} {
		path := writeServerDataset(t, gz)
		var errBuf bytes.Buffer
		a, err := setup([]string{"-in", path, "-addr", ":9999", "-access-log=false"}, &errBuf)
		if err != nil {
			t.Fatal(err)
		}
		if a.srv.Addr != ":9999" {
			t.Fatalf("addr %q", a.srv.Addr)
		}
		if a.admin != nil {
			t.Fatal("admin server configured without -admin")
		}
		if a.srv.ReadHeaderTimeout == 0 || a.srv.WriteTimeout == 0 {
			t.Fatalf("edge timeouts not set: %+v", a.srv)
		}
		rec := httptest.NewRecorder()
		a.srv.Handler.ServeHTTP(rec, httptest.NewRequest("GET", "/api/info", nil))
		if rec.Code != 200 {
			t.Fatalf("status %d", rec.Code)
		}
		var info struct {
			SNPs    int `json:"snps"`
			Samples int `json:"samples"`
		}
		if err := json.NewDecoder(rec.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		if info.SNPs != 50 || info.Samples != 40 {
			t.Fatalf("gz=%v: info %+v", gz, info)
		}
	}
}

func TestSetupErrors(t *testing.T) {
	var errBuf bytes.Buffer
	if _, err := setup(nil, &errBuf); err == nil {
		t.Fatal("missing -in accepted")
	}
	if _, err := setup([]string{"-in", "/nonexistent"}, &errBuf); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := setup([]string{"-bogus"}, &errBuf); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestSetupAdminSurface checks that -admin builds a second server carrying
// pprof and the metric tree, isolated from the client mux.
func TestSetupAdminSurface(t *testing.T) {
	path := writeServerDataset(t, false)
	var errBuf bytes.Buffer
	a, err := setup([]string{
		"-in", path, "-addr", ":9999", "-admin", "127.0.0.1:0", "-access-log=false",
	}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if a.admin == nil {
		t.Fatal("-admin did not configure an admin server")
	}
	for _, p := range []string{"/debug/vars", "/debug/pprof/cmdline"} {
		rec := httptest.NewRecorder()
		a.admin.Handler.ServeHTTP(rec, httptest.NewRequest("GET", p, nil))
		if rec.Code != 200 {
			t.Fatalf("admin %s status %d", p, rec.Code)
		}
	}
	// The heavy pprof index must NOT leak onto the client-facing mux.
	rec := httptest.NewRecorder()
	a.srv.Handler.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code == 200 {
		t.Fatal("pprof exposed on the client listener")
	}
}

// TestRunGracefulShutdown boots the real servers on ephemeral ports and
// checks that cancelling the run context drains them promptly.
func TestRunGracefulShutdown(t *testing.T) {
	path := writeServerDataset(t, false)
	var errBuf bytes.Buffer
	a, err := setup([]string{
		"-in", path, "-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0",
		"-grace", "2s", "-access-log=false",
	}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.run(ctx) }()
	time.Sleep(50 * time.Millisecond) // let the listeners bind
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not drain after cancel")
	}
}

func TestSetupWithStore(t *testing.T) {
	path := writeServerDataset(t, false)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := seqio.ReadBinary(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	storePath := filepath.Join(t.TempDir(), "d.ldts")
	if _, err := ldstore.BuildFile(storePath, g, ldstore.BuildOptions{TileSize: 16}); err != nil {
		t.Fatal(err)
	}

	var errBuf bytes.Buffer
	a, err := setup([]string{"-in", path, "-store", storePath, "-access-log=false"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if a.store == nil {
		t.Fatal("store not retained for shutdown close")
	}
	rec := httptest.NewRecorder()
	a.srv.Handler.ServeHTTP(rec, httptest.NewRequest("GET", "/api/info", nil))
	var info struct {
		StoreLoaded bool   `json:"store_loaded"`
		StoreStat   string `json:"store_stat"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if !info.StoreLoaded || info.StoreStat != "r2" {
		t.Fatalf("info %+v", info)
	}
	a.store.Close()
}

func TestSetupRejectsMismatchedStore(t *testing.T) {
	path := writeServerDataset(t, false)
	other, err := popsim.Mosaic(50, 40, popsim.MosaicConfig{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	storePath := filepath.Join(t.TempDir(), "other.ldts")
	if _, err := ldstore.BuildFile(storePath, other, ldstore.BuildOptions{TileSize: 16}); err != nil {
		t.Fatal(err)
	}
	var errBuf bytes.Buffer
	if _, err := setup([]string{"-in", path, "-store", storePath, "-access-log=false"}, &errBuf); err == nil {
		t.Fatal("mismatched store accepted at startup")
	}
}

// TestSetupReportsHostRoute: there is one driver configuration per host,
// so after a kernel-powered request /debug/vars reports the host default's
// route at this k (one sample word: the tile where the host has one, the
// scalar 4x4 elsewhere).
func TestSetupReportsHostRoute(t *testing.T) {
	path := writeServerDataset(t, false)
	var errBuf bytes.Buffer
	a, err := setup([]string{"-in", path, "-access-log=false"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	a.srv.Handler.ServeHTTP(rec, httptest.NewRequest("GET", "/api/ld/region?start=0&end=20", nil))
	if rec.Code != 200 {
		t.Fatalf("region status %d: %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	a.srv.Handler.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var vars struct {
		Blis struct {
			Variant  string `json:"kernel_variant"`
			Popcount string `json:"popcount_strategy"`
		} `json:"blis"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	engine := "scalar"
	if kernel.Default.Lanes > 1 {
		engine = "vector-" + popcount.VectorName()
	}
	if vars.Blis.Variant != kernel.Default.Name || vars.Blis.Popcount != engine {
		t.Fatalf("/debug/vars reports variant %q popcount %q, want the host default %s/%s",
			vars.Blis.Variant, vars.Blis.Popcount, kernel.Default.Name, engine)
	}
}

// TestSetupRefusesMaxRegionBelowOne: a region cap below 1 is a typo, not a
// request for an uncapped server, so startup fails and names the flag.
func TestSetupRefusesMaxRegionBelowOne(t *testing.T) {
	path := writeServerDataset(t, false)
	for _, bad := range []string{"0", "-1"} {
		var errBuf bytes.Buffer
		_, err := setup([]string{"-in", path, "-max-region", bad, "-access-log=false"}, &errBuf)
		if err == nil || !strings.Contains(err.Error(), "-max-region") {
			t.Fatalf("-max-region %s: setup returned %v, want a -max-region error", bad, err)
		}
	}
	var errBuf bytes.Buffer
	if _, err := setup([]string{"-in", path, "-max-region", "1", "-access-log=false"}, &errBuf); err != nil {
		t.Fatalf("-max-region 1 refused: %v", err)
	}
}

// TestSetupShardMode boots a shard via -shard-range and checks both the
// advertised range and ownership enforcement.
func TestSetupShardMode(t *testing.T) {
	path := writeServerDataset(t, false)
	var errBuf bytes.Buffer
	a, err := setup([]string{"-in", path, "-shard-range", "10:30", "-access-log=false"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	a.srv.Handler.ServeHTTP(rec, httptest.NewRequest("GET", "/api/info", nil))
	var info struct {
		Shard *struct {
			Start int `json:"start"`
			End   int `json:"end"`
		} `json:"shard"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Shard == nil || info.Shard.Start != 10 || info.Shard.End != 30 {
		t.Fatalf("shard info %+v", info.Shard)
	}
	rec = httptest.NewRecorder()
	a.srv.Handler.ServeHTTP(rec, httptest.NewRequest("GET", "/api/ld?i=40&j=45", nil))
	if rec.Code != 421 {
		t.Fatalf("misrouted pair status %d, want 421", rec.Code)
	}

	for _, bad := range []string{"30", "a:b", "-5:10", "10:10", "0:51"} {
		if _, err := setup([]string{"-in", path, "-shard-range", bad, "-access-log=false"}, &errBuf); err == nil {
			t.Fatalf("-shard-range %q accepted", bad)
		}
	}
}

// TestSetupCoordinatorMode boots two real shard servers and a coordinator
// in front of them through the flag surface.
func TestSetupCoordinatorMode(t *testing.T) {
	path := writeServerDataset(t, false)
	var errBuf bytes.Buffer
	shards := make([]string, 2)
	for i, rng := range []string{"0:25", "25:50"} {
		a, err := setup([]string{"-in", path, "-shard-range", rng, "-access-log=false"}, &errBuf)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(a.srv.Handler)
		t.Cleanup(ts.Close)
		shards[i] = ts.URL
	}

	a, err := setup([]string{
		"-coordinator", shards[0] + "," + shards[1],
		"-admin", "127.0.0.1:0", "-retries", "1", "-hedge-after", "-1ms",
	}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if a.coord == nil {
		t.Fatal("coordinator not retained for shutdown close")
	}
	rec := httptest.NewRecorder()
	a.srv.Handler.ServeHTTP(rec, httptest.NewRequest("GET", "/api/ld?i=5&j=40", nil))
	if rec.Code != 200 {
		t.Fatalf("coordinator pair status %d: %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	a.admin.Handler.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if rec.Code != 200 {
		t.Fatalf("coordinator admin vars status %d", rec.Code)
	}
	a.coord.Close()

	// Replica syntax: a second replica of strip 0 joins via `|`, and the
	// coordinator routes around the dead one transparently.
	rep, err := setup([]string{"-in", path, "-shard-range", "0:25", "-access-log=false"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	repTS := httptest.NewServer(rep.srv.Handler)
	a, err = setup([]string{
		"-coordinator", shards[0] + "|" + repTS.URL + "," + shards[1],
		"-retries", "1", "-hedge-after", "-1ms", "-result-cache", "0",
	}, &errBuf)
	if err != nil {
		t.Fatalf("replica coordinator failed to boot: %v", err)
	}
	repTS.Close() // strip 0 still has shards[0]
	rec = httptest.NewRecorder()
	a.srv.Handler.ServeHTTP(rec, httptest.NewRequest("GET", "/api/ld?i=5&j=40", nil))
	if rec.Code != 200 {
		t.Fatalf("replica-group pair status %d: %s", rec.Code, rec.Body)
	}
	a.coord.Close()

	// Mutually exclusive and invalid configurations refuse to start.
	if _, err := setup([]string{"-coordinator", shards[0], "-in", path}, &errBuf); err == nil {
		t.Fatal("-coordinator with -in accepted")
	}
	if _, err := setup([]string{"-coordinator", shards[0], "-shard-range", "0:10"}, &errBuf); err == nil {
		t.Fatal("-coordinator with -shard-range accepted")
	}
	if _, err := setup([]string{"-coordinator", shards[0]}, &errBuf); err == nil {
		t.Fatal("coordinator over half a partition accepted")
	}
}

// TestSetupWithSparseStore: -sparse-store brings the operator endpoints
// up for the matching dataset, and a mismatched sparse store is refused
// loudly at startup.
func TestSetupWithSparseStore(t *testing.T) {
	path := writeServerDataset(t, false)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := seqio.ReadBinary(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	sparsePath := filepath.Join(t.TempDir(), "d.ldss")
	if _, err := ldsparse.BuildFile(sparsePath, g, ldsparse.BuildOptions{TileSize: 16, Threshold: 0.05}); err != nil {
		t.Fatal(err)
	}

	var errBuf bytes.Buffer
	a, err := setup([]string{"-in", path, "-sparse-store", sparsePath, "-access-log=false"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if a.sparse == nil {
		t.Fatal("sparse store not retained for shutdown close")
	}
	if !strings.Contains(errBuf.String(), "sparse store "+sparsePath) {
		t.Fatalf("sparse store load not announced: %q", errBuf.String())
	}
	x := make([]float64, g.SNPs)
	body, _ := json.Marshal(map[string][]float64{"x": x})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/api/sparse/matvec", bytes.NewReader(body))
	a.srv.Handler.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("sparse matvec status %d: %s", rec.Code, rec.Body)
	}
	a.sparse.Close()

	// A sparse store for a different dataset refuses to start.
	other, err := popsim.Mosaic(50, 40, popsim.MosaicConfig{Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	otherPath := filepath.Join(t.TempDir(), "other.ldss")
	if _, err := ldsparse.BuildFile(otherPath, other, ldsparse.BuildOptions{TileSize: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := setup([]string{"-in", path, "-sparse-store", otherPath, "-access-log=false"}, &errBuf); err == nil {
		t.Fatal("mismatched sparse store accepted at startup")
	} else if !strings.Contains(err.Error(), "different dataset") {
		t.Fatalf("mismatch error %v", err)
	}
}
