package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"ldgemm/internal/server"
)

// tamperingShard is a real sparse-serving shard over rows [lo, hi) whose
// 200 bodies to queries pass through *tamper on their way out.
func tamperingShard(t *testing.T, lo, hi int, tamper *atomic.Pointer[func([]byte) []byte]) *httptest.Server {
	t.Helper()
	shard := server.New(testGenotypes(t), server.Config{
		MaxRegionSNPs: 128, Threads: 2, ShardStart: lo, ShardEnd: hi, Sparse: sparseTestStore(t),
	})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		shard.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if f := tamper.Load(); f != nil && rec.Code == http.StatusOK && r.URL.Path != "/api/info" {
			body = (*f)(body)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// remarshal is a tamper that decodes the shard's payload, edits it and
// encodes it again: well-formed JSON of the payload type, in the canonical
// spelling, saying something else.
func remarshal[T any](t *testing.T, edit func(*T)) func([]byte) []byte {
	return func(body []byte) []byte {
		var v T
		if err := json.Unmarshal(body, &v); err != nil {
			t.Error(err)
		}
		edit(&v)
		out, err := json.Marshal(v)
		if err != nil {
			t.Error(err)
		}
		return append(out, '\n')
	}
}

// TestStripShapeChecked: a strip whose reply is not exactly the payload it
// was asked for — too few or too many rows, a row of the wrong width, an
// envelope naming another region, measure or window, a partial answer,
// anything after the payload, a cut-off body — is a lost strip, never
// stacked. Short of the last two every such body is well-formed JSON of the
// payload type: it used to be copied into the answer, leaving silent null
// rows or overwriting the neighbouring strip's.
func TestStripShapeChecked(t *testing.T) {
	var tamper atomic.Pointer[func([]byte) []byte]
	single := sparseShardServer(t, 0, 0)
	bad := tamperingShard(t, 60, 120, &tamper)
	cfg := fastConfig()
	cfg.ResultCacheBytes = -1 // every request must reach the tampering shard
	cluster := newTestCluster(t, cfg, sparseShardServer(t, 0, 60).URL, bad.URL)

	region := func(edit func(*server.RegionResponse)) func([]byte) []byte { return remarshal(t, edit) }
	matvec := func(edit func(*server.MatVecResponse)) func([]byte) []byte { return remarshal(t, edit) }
	cases := []struct {
		name           string
		region, matvec func([]byte) []byte
	}{
		{"short",
			region(func(r *server.RegionResponse) { r.Values = r.Values[:len(r.Values)-1] }),
			matvec(func(r *server.MatVecResponse) { r.Y = r.Y[:len(r.Y)-1] })},
		{"long",
			region(func(r *server.RegionResponse) { r.Values = append(r.Values, r.Values[0]) }),
			matvec(func(r *server.MatVecResponse) { r.Y = append(r.Y, 1) })},
		{"empty",
			region(func(r *server.RegionResponse) { r.Values = [][]float64{} }),
			matvec(func(r *server.MatVecResponse) { r.Y = nil })},
		{"wrong width",
			region(func(r *server.RegionResponse) { r.Values[3] = r.Values[3][1:] }), nil},
		{"null row",
			region(func(r *server.RegionResponse) { r.Values[0] = nil }), nil},
		{"wrong start",
			region(func(r *server.RegionResponse) { r.Start++ }), nil},
		{"wrong end",
			region(func(r *server.RegionResponse) { r.End-- }), nil},
		{"wrong measure",
			region(func(r *server.RegionResponse) { r.Measure = "d" }), nil},
		{"wrong window",
			region(func(r *server.RegionResponse) { r.RowStart-- }),
			matvec(func(r *server.MatVecResponse) { r.RowStart, r.RowEnd = r.RowStart-1, r.RowEnd-1 })},
		{"partial",
			region(func(r *server.RegionResponse) { r.Partial = true }), nil},
		{"trailing bytes",
			func(b []byte) []byte { return append(b, "{}\n"...) },
			func(b []byte) []byte { return append(b, ' ') }},
		{"truncated",
			func(b []byte) []byte { return b[:len(b)/2] },
			func(b []byte) []byte { return b[:len(b)-2] }},
	}

	const regionPath = "/api/ld/region?start=30&end=90"
	var want server.RegionResponse
	if code, _ := get(t, single.URL+regionPath, &want); code != http.StatusOK {
		t.Fatalf("single node answered %d", code)
	}
	x := make([]float64, 120)
	for i := range x {
		x[i] = float64(i%5) - 1.75
	}

	// The harness itself changes nothing: a payload decoded and encoded
	// again unedited is the canonical bytes, and merges.
	same := region(func(*server.RegionResponse) {})
	tamper.Store(&same)
	var got server.RegionResponse
	if code, hdr := get(t, cluster.URL+regionPath, &got); code != http.StatusOK || hdr.Get("X-LD-Shards-Failed") != "" || !reflect.DeepEqual(got, want) {
		t.Fatalf("untampered region: status %d, failed %q, equal to the single node's: %v",
			code, hdr.Get("X-LD-Shards-Failed"), reflect.DeepEqual(got, want))
	}

	for _, c := range cases {
		tamper.Store(&c.region)
		var got server.RegionResponse
		code, hdr := get(t, cluster.URL+regionPath, &got)
		if code != http.StatusOK || !got.Partial || hdr.Get("X-LD-Shards-Failed") != bad.URL {
			t.Errorf("%s: region status %d, partial %v, X-LD-Shards-Failed %q; want a partial answer naming %s",
				c.name, code, got.Partial, hdr.Get("X-LD-Shards-Failed"), bad.URL)
			continue
		}
		if len(got.Values) != len(want.Values) {
			t.Errorf("%s: region holds %d rows, want %d", c.name, len(got.Values), len(want.Values))
			continue
		}
		for i, row := range got.Values {
			if absRow := 30 + i; absRow >= 60 && row != nil {
				t.Errorf("%s: row %d of the lost strip is populated", c.name, absRow)
			} else if absRow < 60 && !reflect.DeepEqual(row, want.Values[i]) {
				t.Errorf("%s: row %d of the surviving strip differs from the single node's", c.name, absRow)
			}
		}

		if c.matvec == nil {
			continue
		}
		tamper.Store(&c.matvec)
		if code, _ := postSparse(t, cluster.URL+"/api/sparse/matvec", server.MatVecRequest{X: x}, nil); code != http.StatusBadGateway {
			t.Errorf("%s: matvec status %d, want 502", c.name, code)
		}
	}
}

// TestRepliesDeclareLength: a materialised body goes out with its length
// declared, not chunked, from a node and from a coordinator.
func TestRepliesDeclareLength(t *testing.T) {
	tiers := map[string]*httptest.Server{
		"single node":     singleServer(t),
		"2-strip cluster": newTestCluster(t, fastConfig(), shardServer(t, 0, 60).URL, shardServer(t, 60, 120).URL),
	}
	for tier, ts := range tiers {
		for _, path := range []string{"/api/ld/region?start=10&end=110", "/api/ld/top?k=50", "/api/ld?i=3"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
				t.Errorf("%s %s: Content-Length %d, Transfer-Encoding %v on a %d-byte body",
					tier, path, resp.ContentLength, resp.TransferEncoding, len(body))
			}
		}
	}
}

// stripBody is the body a node answers the strip request with.
func stripBody(t testing.TB, node http.Handler, q server.Query, strip server.Window) []byte {
	t.Helper()
	method, body := http.MethodGet, io.Reader(nil)
	if sq, ok := q.(server.SparseQuery); ok {
		sq.Vec = wireVector()
		method, body = http.MethodPost, bytes.NewReader(sq.Body())
	}
	rec := httptest.NewRecorder()
	node.ServeHTTP(rec, httptest.NewRequest(method, q.Path(strip), body))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s answered %d: %s", q.Path(strip), rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// fuzzStrip maps fuzzed integers onto a strip request, or reports that
// they do not describe one.
func fuzzStrip(kind uint8, start, end, lo, hi uint16) (server.Merge, server.Query, server.Window, bool) {
	strip := server.Window{Lo: int(lo), Hi: int(hi)}
	if strip.Lo >= strip.Hi {
		return 0, nil, strip, false
	}
	switch kind % 5 {
	case 3:
		return server.MergeConcat, server.SparseQuery{Op: "matvec"}, strip, true
	case 4:
		return server.MergeConcat, server.SparseQuery{Op: "score"}, strip, true
	}
	q := server.RegionQuery{Start: int(start), End: int(end), Measure: []string{"r2", "d", "dprime"}[kind%5]}
	return server.MergeStack, q, strip, q.Start <= strip.Lo && strip.Hi <= q.End
}

// FuzzSpliceScan feeds arbitrary bytes to the strip scan as the reply to
// an arbitrary strip request. The invariant: the scan never panics; a
// body it accepts is one encoding/json decodes into the payload type, with
// exactly the asked envelope, row count and row widths; and splicing that
// one strip alone reproduces the body byte for byte.
func FuzzSpliceScan(f *testing.F) {
	// Seeded from TestWireStability's dataset and strips: kind 0–2 a
	// region's measure, 3 matvec, 4 score; start, end; the strip's rows.
	node := wireNodes(f, true)(0, 0)
	for _, seed := range [][5]uint16{
		{0, 100, 160, 100, 160}, {0, 100, 160, 110, 150}, {1, 100, 160, 100, 120}, {2, 100, 160, 140, 160},
		{0, 0, 64, 0, 3}, {3, 0, 0, 64, 192}, {3, 0, 0, 10, 20}, {4, 0, 0, 200, 256},
	} {
		kind, start, end, lo, hi := uint8(seed[0]), seed[1], seed[2], seed[3], seed[4]
		_, q, strip, _ := fuzzStrip(kind, start, end, lo, hi)
		body := stripBody(f, node, q, strip)
		add := func(b []byte) { f.Add(b, kind, start, end, lo, hi) }
		add(body)
		add(body[:len(body)/2])
		add(body[:len(body)-1])
		add(append(bytes.Clone(body), '\n'))
		// One number of the array respelled: the first after its opening
		// brackets.
		open := bytes.Index(body, []byte(":[")) + 1
		at := open + bytes.IndexAny(body[open:], "-0123456789")
		stop := at + bytes.IndexAny(body[at:], ",]")
		for _, number := range []string{"1e999", "1e308", "9e307", "01", "-", "1.", ".5", "+1", "1e", "1e+", "0x1", "NaN",
			"null", "true", `"1"`, "[1]", "{}", "1 ", " 1", "1,", "", "-0", "0e0", "1E-400", "123456789012345678901234567890"} {
			add(bytes.Join([][]byte{body[:at], []byte(number), body[stop:]}, nil))
		}
		add(append(bytes.Clone(body[:stop]), body[stop+1:]...)) // a separator gone
		add(bytes.Replace(body, []byte(`"row_end"`), []byte(`"row_end" `), 1))
		add(bytes.Replace(body, []byte(`{"`), []byte(`{"partial":true,"`), 1))
	}
	f.Add([]byte{}, uint8(0), uint16(0), uint16(1), uint16(0), uint16(1))

	f.Fuzz(func(t *testing.T, body []byte, kind uint8, start, end, lo, hi uint16) {
		rule, q, strip, ok := fuzzStrip(kind, start, end, lo, hi)
		if !ok {
			return
		}
		part, err := decodeStrip(rule, q, strip, body)
		if err != nil {
			return
		}
		n := strip.Hi - strip.Lo
		switch q := q.(type) {
		case server.RegionQuery:
			var resp server.RegionResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("scan accepted what encoding/json refuses (%v): %s", err, body)
			}
			want := q.Response(strip)
			want.Values = resp.Values
			if !reflect.DeepEqual(resp, want) || len(resp.Values) != n {
				t.Fatalf("scan accepted %d rows under %+v as the %d rows of %s: %s", len(resp.Values), resp, n, q.Path(strip), body)
			}
			for i, row := range resp.Values {
				if row == nil || len(row) != q.End-q.Start {
					t.Fatalf("scan accepted row %d with %d values in a region %d wide: %s", i, len(row), q.End-q.Start, body)
				}
			}
		case server.SparseQuery:
			var resp server.MatVecResponse
			var seg []float64
			if q.Op == "score" {
				var score server.ScoreResponse
				err = json.Unmarshal(body, &score)
				resp, seg = server.MatVecResponse{RowStart: score.RowStart, RowEnd: score.RowEnd}, score.Scores
			} else {
				err = json.Unmarshal(body, &resp)
				seg = resp.Y
			}
			if err != nil {
				t.Fatalf("scan accepted what encoding/json refuses (%v): %s", err, body)
			}
			if resp.RowStart != strip.Lo || resp.RowEnd != strip.Hi || len(seg) != n {
				t.Fatalf("scan accepted rows [%d,%d) × %d as the answer to %s: %s", resp.RowStart, resp.RowEnd, len(seg), q.Path(strip), body)
			}
		}
		if alone := mergeStrips(rule, q, strip, []server.Window{strip}, []any{part}, false); !bytes.Equal(alone.Body, body) {
			t.Fatalf("one strip spliced alone is\n%s, the strip was\n%s", alone.Body, body)
		}
	})
}

var sinkMerged *server.Response

// BenchmarkScatterRegion: what a coordinator does with the two strip
// bodies of one 80 × 80 region once they have arrived — check both, merge.
func BenchmarkScatterRegion(b *testing.B) {
	nodes := wireNodes(b, false)
	q := server.RegionQuery{Start: 100, End: 180, Measure: "r2"}
	rows := server.Window{Lo: 100, Hi: 180}
	strips := []server.Window{{Lo: 100, Hi: 128}, {Lo: 128, Hi: 180}}
	bodies := [][]byte{stripBody(b, nodes(0, 128), q, strips[0]), stripBody(b, nodes(128, 256), q, strips[1])}
	b.SetBytes(int64(len(bodies[0]) + len(bodies[1])))
	b.ReportAllocs()
	for b.Loop() {
		parts := make([]any, 2)
		for k, body := range bodies {
			part, err := decodeStrip(server.MergeStack, q, strips[k], body)
			if err != nil {
				b.Fatal(err)
			}
			parts[k] = part
		}
		sinkMerged = mergeStrips(server.MergeStack, q, rows, strips, parts, false)
	}
}
