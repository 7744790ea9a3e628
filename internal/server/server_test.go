package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"ldgemm/internal/core"
	"ldgemm/internal/popsim"
)

func testServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	g, err := popsim.Mosaic(120, 200, popsim.MosaicConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := New(g, Config{MaxRegionSNPs: 64, MaxTopK: 50, Threads: 2})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestInfoEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	var info InfoResponse
	if code := getJSON(t, ts.URL+"/api/info", &info); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if info.SNPs != 120 || info.Samples != 200 || info.Polymorphic != 120 {
		t.Fatalf("info %+v", info)
	}
	if info.MeanFrequency <= 0 || info.MeanFrequency >= 1 {
		t.Fatalf("mean frequency %v", info.MeanFrequency)
	}
}

func TestFreqEndpoint(t *testing.T) {
	ts, s := testServer(t)
	var fr FreqResponse
	if code := getJSON(t, ts.URL+"/api/freq?i=7", &fr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if fr.SNP != 7 || fr.Frequency != s.freqs[7] {
		t.Fatalf("freq %+v", fr)
	}
	if code := getJSON(t, ts.URL+"/api/freq?i=999", nil); code != http.StatusBadRequest {
		t.Fatalf("out-of-range SNP gave %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/freq", nil); code != http.StatusBadRequest {
		t.Fatalf("missing param gave %d", code)
	}
}

func TestPairEndpoint(t *testing.T) {
	ts, s := testServer(t)
	var pr PairResponse
	if code := getJSON(t, ts.URL+"/api/ld?i=3&j=11", &pr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	want := core.PairLD(s.g, 3, 11)
	if math.Abs(pr.R2-want.R2) > 1e-12 || math.Abs(pr.D-want.D) > 1e-12 {
		t.Fatalf("pair %+v, want %+v", pr, want)
	}
	if pr.PValue < 0 || pr.PValue > 1 {
		t.Fatalf("p-value %v", pr.PValue)
	}
	if code := getJSON(t, ts.URL+"/api/ld?i=3", nil); code != http.StatusBadRequest {
		t.Fatalf("missing j gave %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/ld?i=3&j=xyz", nil); code != http.StatusBadRequest {
		t.Fatalf("bad j gave %d", code)
	}
}

func TestRegionEndpoint(t *testing.T) {
	ts, s := testServer(t)
	var rr RegionResponse
	if code := getJSON(t, ts.URL+"/api/ld/region?start=10&end=30", &rr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if rr.Measure != "r2" || len(rr.Values) != 20 || len(rr.Values[0]) != 20 {
		t.Fatalf("region shape %s %dx%d", rr.Measure, len(rr.Values), len(rr.Values[0]))
	}
	// Spot-check against direct computation.
	want := core.PairLD(s.g, 12, 25).R2
	if math.Abs(rr.Values[2][15]-want) > 1e-12 {
		t.Fatalf("region value %v, want %v", rr.Values[2][15], want)
	}
	// Caps and validation.
	if code := getJSON(t, ts.URL+"/api/ld/region?start=0&end=100", nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("oversized region gave %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/ld/region?start=30&end=10", nil); code != http.StatusBadRequest {
		t.Fatalf("inverted region gave %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/ld/region?start=0&end=10&measure=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("bad measure gave %d", code)
	}
	// D′ measure path.
	if code := getJSON(t, ts.URL+"/api/ld/region?start=0&end=10&measure=dprime", &rr); code != http.StatusOK {
		t.Fatalf("dprime status %d", code)
	}
	if rr.Measure != "dprime" {
		t.Fatalf("measure %q", rr.Measure)
	}
}

// TestConcurrentRegionRequests drives the region endpoint from many
// goroutines: the per-request blis calls share the
// pooled pack arena and the square replies the encoder's pooled offset
// scratch, so this doubles as the server leg of the race tier.
func TestConcurrentRegionRequests(t *testing.T) {
	g, err := popsim.Mosaic(120, 200, popsim.MosaicConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := New(g, Config{MaxRegionSNPs: 64, Threads: 2})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	var want RegionResponse
	if code := getJSON(t, ts.URL+"/api/ld/region?start=10&end=40", &want); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rr RegionResponse
			resp, err := http.Get(ts.URL + "/api/ld/region?start=10&end=40")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				t.Error(err)
				return
			}
			for i := range rr.Values {
				for j := range rr.Values[i] {
					if rr.Values[i][j] != want.Values[i][j] {
						t.Errorf("concurrent region mismatch at (%d,%d)", i, j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestTopEndpoint(t *testing.T) {
	ts, s := testServer(t)
	var tr TopResponse
	if code := getJSON(t, ts.URL+"/api/ld/top?k=5", &tr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(tr.Pairs) != 5 {
		t.Fatalf("%d pairs", len(tr.Pairs))
	}
	for i := 1; i < len(tr.Pairs); i++ {
		if tr.Pairs[i].R2 > tr.Pairs[i-1].R2+1e-12 {
			t.Fatal("top pairs not sorted")
		}
	}
	// The top hit must really be the strongest off-diagonal pair.
	best := 0.0
	for i := 0; i < s.g.SNPs; i++ {
		for j := i + 1; j < s.g.SNPs; j++ {
			if r2 := core.PairLD(s.g, i, j).R2; r2 > best {
				best = r2
			}
		}
	}
	if math.Abs(tr.Pairs[0].R2-best) > 1e-9 {
		t.Fatalf("top pair r² %v, want %v", tr.Pairs[0].R2, best)
	}
	if code := getJSON(t, ts.URL+"/api/ld/top?k=10000", nil); code != http.StatusBadRequest {
		t.Fatalf("oversized k gave %d", code)
	}
}

// TestNegativeCapsKeepDefaults: a cap below 1 is not "uncapped". Region
// width and k are held to the defaults (512 and 1000), so a 600-wide region
// is refused and k outside 1..1000 is a bad request.
func TestNegativeCapsKeepDefaults(t *testing.T) {
	g, err := popsim.Mosaic(600, 64, popsim.MosaicConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := New(g, Config{MaxRegionSNPs: -1, MaxTopK: -1, Threads: 1})
	for _, c := range []struct {
		path string
		want int
	}{
		{"/api/ld/region?start=0&end=600", http.StatusUnprocessableEntity},
		{"/api/ld/region?start=0&end=8", http.StatusOK},
		{"/api/ld/top?k=0", http.StatusBadRequest},
		{"/api/ld/top?k=-3", http.StatusBadRequest},
		{"/api/ld/top?k=1001", http.StatusBadRequest},
		{"/api/ld/top?k=3", http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", c.path, nil))
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d", c.path, rec.Code, c.want)
		}
	}
}

func TestPruneEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	var pr PruneResponse
	if code := getJSON(t, ts.URL+"/api/prune?window=30&step=5&r2=0.3", &pr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(pr.Kept)+len(pr.Removed) != 120 {
		t.Fatalf("partition %d+%d", len(pr.Kept), len(pr.Removed))
	}
	if code := getJSON(t, ts.URL+"/api/prune?r2=7", nil); code != http.StatusBadRequest {
		t.Fatalf("bad threshold gave %d", code)
	}
}

func TestBlocksEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	var br BlocksResponse
	if code := getJSON(t, ts.URL+"/api/blocks?dprime=0.9&frac=0.9", &br); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, b := range br.Blocks {
		if b.Start >= b.End || b.End > 120 {
			t.Fatalf("bad block %+v", b)
		}
	}
	if code := getJSON(t, ts.URL+"/api/blocks?dprime=2", nil); code != http.StatusBadRequest {
		t.Fatalf("bad dprime gave %d", code)
	}
}

func TestOmegaEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	var or OmegaResponse
	if code := getJSON(t, ts.URL+"/api/omega?grid=7&max_each=20", &or); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(or.Points) != 7 {
		t.Fatalf("%d points", len(or.Points))
	}
	for _, p := range or.Points {
		if p.Omega > or.Peak.Omega {
			t.Fatal("peak not the max")
		}
	}
	if code := getJSON(t, ts.URL+"/api/omega?min_each=1", nil); code != http.StatusBadRequest {
		t.Fatalf("bad min_each gave %d", code)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Post(ts.URL+"/api/info", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST gave %d", resp.StatusCode)
	}
}

func TestUnknownPath(t *testing.T) {
	ts, _ := testServer(t)
	if code := getJSON(t, ts.URL+"/api/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown path gave %d", code)
	}
}

func ExampleServer() {
	// Construct directly (no network) to show the handler shape.
	g, _ := popsim.Mosaic(10, 50, popsim.MosaicConfig{Seed: 1})
	s := New(g, Config{})
	req := httptest.NewRequest("GET", "/api/info", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var info InfoResponse
	json.NewDecoder(rec.Body).Decode(&info)
	fmt.Println(info.SNPs, info.Samples)
	// Output: 10 50
}
