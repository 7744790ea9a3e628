package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"ldgemm/internal/blis"
	"ldgemm/internal/core"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/popsim"
)

// storeServers builds one dataset and two servers over it — one backed by
// a tile store, one computing on the fly — so tests can compare the two
// paths request for request; st is the store.
func storeServers(t *testing.T) (plain, stored *httptest.Server, st *ldstore.Store) {
	t.Helper()
	gm, err := popsim.Mosaic(120, 200, popsim.MosaicConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "srv.ldts")
	if _, err := ldstore.BuildFile(path, gm, ldstore.BuildOptions{TileSize: 32}); err != nil {
		t.Fatalf("BuildFile: %v", err)
	}
	st, err = ldstore.Open(path, ldstore.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	cfg := Config{MaxRegionSNPs: 64, MaxTopK: 50, Threads: 2}
	plain = httptest.NewServer(New(gm, cfg))
	t.Cleanup(plain.Close)
	cfg.Store = st
	stored = httptest.NewServer(New(gm, cfg))
	t.Cleanup(stored.Close)
	return plain, stored, st
}

// TestStoreRegionBitIdentical is the headline acceptance test: for every
// measure, one store-backed server's /api/ld/region response must be
// bit-for-bit identical to the on-the-fly response, and a repeat of the
// same (now warm-cached) query must run zero kernel invocations. The
// store's own Rect and At, a row strip of the region, and /api/ld's pair
// cells must carry the same bits.
func TestStoreRegionBitIdentical(t *testing.T) {
	plain, stored, store := storeServers(t)
	for _, tc := range []struct {
		meas    core.Measure
		measure string
	}{{core.MeasureR2, "r2"}, {core.MeasureD, "d"}, {core.MeasureDPrime, "dprime"}} {
		t.Run(tc.measure, func(t *testing.T) {
			url := fmt.Sprintf("/api/ld/region?start=13&end=70&measure=%s", tc.measure)
			var want, got RegionResponse
			if code := getJSON(t, plain.URL+url, &want); code != 200 {
				t.Fatalf("plain status %d", code)
			}
			if code := getJSON(t, stored.URL+url, &got); code != 200 {
				t.Fatalf("stored status %d", code)
			}
			if len(got.Values) != len(want.Values) {
				t.Fatalf("row counts %d vs %d", len(got.Values), len(want.Values))
			}
			for i := range want.Values {
				for j := range want.Values[i] {
					w, g := want.Values[i][j], got.Values[i][j]
					if math.Float64bits(w) != math.Float64bits(g) {
						t.Fatalf("(%d,%d): store %v, compute %v", i, j, g, w)
					}
				}
			}

			// Warm repeat: all tiles for the window are cached now, so the
			// request must finish without a single kernel-driver call and
			// with only cache hits on the store side.
			kern := blis.ReadStats()
			st := ldstore.ReadStats()
			var again RegionResponse
			if code := getJSON(t, stored.URL+url, &again); code != 200 {
				t.Fatalf("warm status %d", code)
			}
			if d := blis.ReadStats().Calls - kern.Calls; d != 0 {
				t.Fatalf("warm store-backed region ran %d kernel calls", d)
			}
			after := ldstore.ReadStats()
			if after.CacheHits == st.CacheHits {
				t.Fatal("warm region made no cache hits")
			}
			if after.TilesRead != st.TilesRead {
				t.Fatalf("warm region re-read %d tiles from disk", after.TilesRead-st.TilesRead)
			}

			// The same cells from the store's Rect and At, a row strip
			// of the region, and /api/ld.
			cell := func(i, j int) float64 { return want.Values[i-13][j-13] }
			same := func(what string, i, j int, v float64) {
				t.Helper()
				if math.Float64bits(v) != math.Float64bits(cell(i, j)) {
					t.Fatalf("%s (%d,%d) = %v, compute %v", what, i, j, v, cell(i, j))
				}
			}
			rect, err := store.Rect(tc.meas, 40, 60, 13, 70)
			if err != nil {
				t.Fatal(err)
			}
			var strip RegionResponse
			if code := getJSON(t, stored.URL+url+"&rows=40:60", &strip); code != 200 || len(strip.Values) != 20 {
				t.Fatalf("strip status %d, %d rows", code, len(strip.Values))
			}
			for i := 40; i < 60; i++ {
				for j := 13; j < 70; j++ {
					same("Rect", i, j, rect[(i-40)*57+j-13])
					same("strip", i, j, strip.Values[i-40][j-13])
				}
			}
			for _, p := range [][2]int{{13, 13}, {20, 69}, {69, 20}, {45, 46}, {33, 64}} {
				v, err := store.Cell(tc.meas, p[0], p[1])
				if err != nil {
					t.Fatal(err)
				}
				same("Cell", p[0], p[1], v)
				if tc.meas == core.MeasureR2 {
					at, err := store.At(p[0], p[1])
					if err != nil {
						t.Fatal(err)
					}
					same("At", p[0], p[1], at)
				}
				var pair PairResponse
				if code := getJSON(t, fmt.Sprintf("%s/api/ld?i=%d&j=%d", stored.URL, p[0], p[1]), &pair); code != 200 {
					t.Fatalf("pair status %d", code)
				}
				same("/api/ld", p[0], p[1], map[core.Measure]float64{core.MeasureR2: pair.R2, core.MeasureD: pair.D, core.MeasureDPrime: pair.DPrime}[tc.meas])
			}
		})
	}
}

// TestStorePairAndTop checks the other two fast paths: pair responses
// match the plain server to rounding (the store converts D, r² and D′ as
// the dense path does, the plain server through PairLD), and the
// store-backed top list finds the same leading pairs with zero kernel
// calls.
func TestStorePairAndTop(t *testing.T) {
	plain, stored, _ := storeServers(t)

	var wantPair, gotPair PairResponse
	if code := getJSON(t, plain.URL+"/api/ld?i=11&j=87", &wantPair); code != 200 {
		t.Fatalf("plain pair status %d", code)
	}
	kern := blis.ReadStats()
	if code := getJSON(t, stored.URL+"/api/ld?i=11&j=87", &gotPair); code != 200 {
		t.Fatalf("stored pair status %d", code)
	}
	if d := blis.ReadStats().Calls - kern.Calls; d != 0 {
		t.Fatalf("store-backed pair ran %d kernel calls", d)
	}
	if math.Abs(gotPair.R2-wantPair.R2) > 1e-12 || gotPair.PAB != wantPair.PAB ||
		gotPair.PA != wantPair.PA || gotPair.PB != wantPair.PB {
		t.Fatalf("pair mismatch: %+v vs %+v", gotPair, wantPair)
	}

	var wantTop, gotTop TopResponse
	if code := getJSON(t, plain.URL+"/api/ld/top?k=10", &wantTop); code != 200 {
		t.Fatalf("plain top status %d", code)
	}
	kern = blis.ReadStats()
	if code := getJSON(t, stored.URL+"/api/ld/top?k=10", &gotTop); code != 200 {
		t.Fatalf("stored top status %d", code)
	}
	if d := blis.ReadStats().Calls - kern.Calls; d != 0 {
		t.Fatalf("store-backed top ran %d kernel calls", d)
	}
	if len(gotTop.Pairs) != 10 {
		t.Fatalf("store top returned %d pairs", len(gotTop.Pairs))
	}
	// Same strongest pairs in the same order (values can differ in the
	// last ulp: the significance stream uses the fast epilogue).
	for i, w := range wantTop.Pairs {
		g := gotTop.Pairs[i]
		if g.I != w.I || g.J != w.J || math.Abs(g.R2-w.R2) > 1e-12 {
			t.Fatalf("top[%d]: store (%d,%d,%v), compute (%d,%d,%v)", i, g.I, g.J, g.R2, w.I, w.J, w.R2)
		}
	}
}

// TestStoreServesEveryMeasure: one store serves a D′ region — the store
// path answers it (store_served grows, no kernel call, no fallback) — and
// the response is bit-equal to the computed one.
func TestStoreServesEveryMeasure(t *testing.T) {
	plain, stored, _ := storeServers(t)
	url := "/api/ld/region?start=0&end=40&measure=dprime"
	var want, got RegionResponse
	if code := getJSON(t, plain.URL+url, &want); code != 200 {
		t.Fatalf("plain status %d", code)
	}
	type counters struct {
		StoreServed    int `json:"store_served"`
		StoreFallbacks int `json:"store_fallbacks"`
	}
	var before, after counters
	if code := getJSON(t, stored.URL+"/debug/vars", &before); code != 200 {
		t.Fatalf("vars status %d", code)
	}
	kern := blis.ReadStats()
	if code := getJSON(t, stored.URL+url, &got); code != 200 {
		t.Fatalf("stored status %d", code)
	}
	if d := blis.ReadStats().Calls - kern.Calls; d != 0 {
		t.Fatalf("store-backed D′ region ran %d kernel calls", d)
	}
	if code := getJSON(t, stored.URL+"/debug/vars", &after); code != 200 {
		t.Fatalf("vars status %d", code)
	}
	if after.StoreServed != before.StoreServed+1 || after.StoreFallbacks != before.StoreFallbacks {
		t.Fatalf("store_served %d → %d, store_fallbacks %d → %d: the store did not serve the D′ region",
			before.StoreServed, after.StoreServed, before.StoreFallbacks, after.StoreFallbacks)
	}
	for i := range want.Values {
		for j := range want.Values[i] {
			if math.Float64bits(want.Values[i][j]) != math.Float64bits(got.Values[i][j]) {
				t.Fatalf("(%d,%d): store %v, compute %v", i, j, got.Values[i][j], want.Values[i][j])
			}
		}
	}
}

// TestStoreFingerprintMismatchIgnored gives New a store built from a
// different dataset: it must be dropped, leaving every endpoint on the
// compute path and /api/info reporting no store.
func TestStoreFingerprintMismatchIgnored(t *testing.T) {
	g, err := popsim.Mosaic(60, 80, popsim.MosaicConfig{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	other, err := popsim.Mosaic(60, 80, popsim.MosaicConfig{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "other.ldts")
	if _, err := ldstore.BuildFile(path, other, ldstore.BuildOptions{TileSize: 16}); err != nil {
		t.Fatal(err)
	}
	st, err := ldstore.Open(path, ldstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := httptest.NewServer(New(g, Config{Store: st}))
	defer ts.Close()
	var info InfoResponse
	if code := getJSON(t, ts.URL+"/api/info", &info); code != 200 {
		t.Fatalf("status %d", code)
	}
	if info.StoreLoaded {
		t.Fatal("mismatched store reported as loaded")
	}
}

// TestStoreInfoAndVars checks the observable store surface: /api/info
// store fields and the /debug/vars store counters.
func TestStoreInfoAndVars(t *testing.T) {
	_, stored, _ := storeServers(t)
	var info InfoResponse
	if code := getJSON(t, stored.URL+"/api/info", &info); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !info.StoreLoaded || info.StoreStat != "r2" {
		t.Fatalf("info %+v", info)
	}
	if code := getJSON(t, stored.URL+"/api/ld/region?start=0&end=30", nil); code != 200 {
		t.Fatalf("region status %d", code)
	}
	var vars struct {
		StoreServed int `json:"store_served"`
		Store       struct {
			TilesRead   uint64 `json:"tiles_read"`
			BytesServed uint64 `json:"bytes_served"`
		} `json:"store"`
	}
	if code := getJSON(t, stored.URL+"/debug/vars", &vars); code != 200 {
		t.Fatalf("vars status %d", code)
	}
	if vars.StoreServed == 0 {
		t.Fatalf("store_served not incremented: %+v", vars)
	}
	if vars.Store.TilesRead == 0 || vars.Store.BytesServed == 0 {
		t.Fatalf("store counters empty: %+v", vars)
	}
}

// TestStoreWrongKindIgnored gives New each store in the other's place: a
// pruned store as Store and a complete one as Sparse. Both are left
// unloaded, as a fingerprint mismatch is, so the server answers as it does
// with no store: /api/info reports neither, a region and a pair come back
// with the computed bytes, and the sparse operators with the same status
// and body as on a server without a sparse store.
func TestStoreWrongKindIgnored(t *testing.T) {
	g, err := popsim.Mosaic(60, 80, popsim.MosaicConfig{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	open := func(name string, bo ldstore.BuildOptions) *ldstore.Store {
		path := filepath.Join(t.TempDir(), name)
		if _, err := ldstore.BuildFile(path, g, bo); err != nil {
			t.Fatal(err)
		}
		st, err := ldstore.Open(path, ldstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	complete := open("g.ldts", ldstore.BuildOptions{TileSize: 16})
	pruned := open("g.ldss", ldstore.BuildOptions{TileSize: 16, Threshold: 0.05})
	plain := httptest.NewServer(New(g, Config{}))
	defer plain.Close()
	swapped := httptest.NewServer(New(g, Config{Store: pruned, Sparse: complete}))
	defer swapped.Close()

	var info InfoResponse
	if code := getJSON(t, swapped.URL+"/api/info", &info); code != 200 || info.StoreLoaded || info.Sparse != nil {
		t.Fatalf("info %d: store loaded %v, sparse %+v", code, info.StoreLoaded, info.Sparse)
	}
	body := make([]byte, 0, 1024)
	body = append(body, `{"x":[`...)
	for i := range g.SNPs {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, '1')
	}
	body = append(body, "]}"...)
	reply := func(base, method, path string) (int, string) {
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	for _, q := range []struct{ method, path string }{
		{"GET", "/api/ld/region?start=3&end=40&measure=dprime"},
		{"GET", "/api/ld?i=4&j=17"},
		{"GET", "/api/ld/top?k=5"},
		{"POST", "/api/sparse/matvec"},
		{"POST", "/api/sparse/score"},
	} {
		wantCode, want := reply(plain.URL, q.method, q.path)
		if code, got := reply(swapped.URL, q.method, q.path); code != wantCode || got != want {
			t.Fatalf("%s %s: %d %.80q, without a store %d %.80q", q.method, q.path, code, got, wantCode, want)
		}
	}
}
