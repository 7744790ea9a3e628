package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"ldgemm/internal/bufpool"
	"ldgemm/internal/server"
)

// tampered is how a tampering shard answers: as asked, or — json — as if
// asked for JSON; then, when edit is set, with edit's body in place of its
// 200's. edit gets the reply's header, and its body split where the floats
// of a raw strip holding floats floats start.
type tampered struct {
	json   bool
	floats int
	edit   func(h http.Header, head, vals []byte) []byte
}

// tamperingShard is a real sparse-serving shard over rows [lo, hi) whose
// 200 replies to queries are tampered with as *tamper says on their way
// out.
func tamperingShard(t *testing.T, lo, hi int, tamper *atomic.Pointer[tampered]) *httptest.Server {
	t.Helper()
	shard := server.New(testGenotypes(t), server.Config{
		MaxRegionSNPs: 128, Threads: 2, ShardStart: lo, ShardEnd: hi, Sparse: sparseTestStore(t),
	})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tp := tamper.Load()
		if tp != nil && tp.json {
			r.Header.Del("Accept")
		}
		rec := httptest.NewRecorder()
		shard.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if tp != nil && tp.edit != nil && rec.Code == http.StatusOK && r.URL.Path != "/api/info" {
			at := len(body) - 8*tp.floats
			body = tp.edit(rec.Header(), bytes.Clone(body[:at]), bytes.Clone(body[at:]))
		}
		w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestStripShapeChecked: a strip whose raw reply is not exactly the payload
// it was asked for — a float or a byte short or over, no floats at all, a
// head naming another region, measure or window, a partial answer, anything
// after the floats, a cut-off body, a non-finite float, a JSON answer or a
// wrong Content-Type — is a lost strip: a partial region naming the shard,
// a 502 for matvec, never a 200 carrying wrong or unspellable values.
func TestStripShapeChecked(t *testing.T) {
	var tamper atomic.Pointer[tampered]
	single := sparseShardServer(t, 0, 0)
	bad := tamperingShard(t, 60, 120, &tamper)
	cfg := fastConfig()
	cfg.ResultCacheBytes = -1 // every request must reach the tampering shard
	cluster := newTestCluster(t, cfg, sparseShardServer(t, 0, 60).URL, bad.URL)

	// The bad shard's strips: rows 60:90 of the 60-wide region, and rows
	// 60:120 of the matvec.
	const regionFloats, matvecFloats = 30 * 60, 60
	type edit = func(h http.Header, head, vals []byte) []byte
	join := func(extra string) edit {
		return func(_ http.Header, head, vals []byte) []byte { return append(append(head, vals...), extra...) }
	}
	respell := func(old, new string) edit {
		return func(_ http.Header, head, vals []byte) []byte {
			return append(bytes.Replace(head, []byte(old), []byte(new), 1), vals...)
		}
	}
	setFirst := func(f float64) edit {
		return func(_ http.Header, head, vals []byte) []byte {
			binary.LittleEndian.PutUint64(vals, math.Float64bits(f))
			return append(head, vals...)
		}
	}
	cases := []struct {
		name             string
		json, regionOnly bool
		edit             edit
	}{
		{name: "float short", edit: func(_ http.Header, head, vals []byte) []byte { return append(head, vals[8:]...) }},
		{name: "float long", edit: join("\x00\x00\x00\x00\x00\x00\xf0\x3f")},
		{name: "byte short", edit: func(_ http.Header, head, vals []byte) []byte { return append(head, vals[1:]...) }},
		{name: "byte over", edit: join("\x00")},
		{name: "empty array", edit: func(_ http.Header, head, _ []byte) []byte { return head }},
		{name: "wrong start", regionOnly: true, edit: respell(`"start":30`, `"start":31`)},
		{name: "wrong end", regionOnly: true, edit: respell(`"end":90`, `"end":89`)},
		{name: "wrong measure", regionOnly: true, edit: respell(`"measure":"r2"`, `"measure":"d"`)},
		{name: "wrong window", edit: respell(`"row_start":60`, `"row_start":59`)},
		{name: "partial", regionOnly: true, edit: respell(`,"values":`, `,"partial":true,"values":`)},
		{name: "trailing bytes", edit: join("}\n")},
		{name: "truncated", edit: func(_ http.Header, head, vals []byte) []byte {
			b := append(head, vals...)
			return b[:len(b)/2]
		}},
		{name: "NaN", edit: setFirst(math.NaN())},
		{name: "+Inf", edit: setFirst(math.Inf(1))},
		{name: "-Inf", edit: setFirst(math.Inf(-1))},
		{name: "JSON answer", json: true},
		{name: "wrong Content-Type", edit: func(h http.Header, head, vals []byte) []byte {
			h.Set("Content-Type", "application/json")
			return append(head, vals...)
		}},
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

	// The harness itself changes nothing: a raw reply passed through
	// unedited merges to the single node's answer.
	tamper.Store(&tampered{floats: regionFloats, edit: join("")})
	var got server.RegionResponse
	if code, hdr := get(t, cluster.URL+regionPath, &got); code != http.StatusOK || hdr.Get("X-LD-Shards-Failed") != "" || !reflect.DeepEqual(got, want) {
		t.Fatalf("untampered region: status %d, failed %q, equal to the single node's: %v",
			code, hdr.Get("X-LD-Shards-Failed"), reflect.DeepEqual(got, want))
	}

	for _, c := range cases {
		tamper.Store(&tampered{json: c.json, floats: regionFloats, edit: c.edit})
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

		if c.regionOnly {
			continue
		}
		tamper.Store(&tampered{json: c.json, floats: matvecFloats, edit: c.edit})
		if code, _ := postSparse(t, cluster.URL+"/api/sparse/matvec", server.MatVecRequest{X: x}, nil); code != http.StatusBadGateway {
			t.Errorf("%s: matvec status %d, want 502", c.name, code)
		}
	}
}

// TestCoordinatorAnswersJSON: a coordinator asked for
// application/octet-stream answers its JSON body — the one it answers
// without the header, the single node's — on all three float routes.
func TestCoordinatorAnswersJSON(t *testing.T) {
	single := sparseShardServer(t, 0, 0)
	cfg := fastConfig()
	cfg.ResultCacheBytes = -1
	cluster := newTestCluster(t, cfg, sparseShardServer(t, 0, 60).URL, sparseShardServer(t, 60, 120).URL)
	vec, _ := json.Marshal(map[string][]float64{"x": wireVector()[:120]})
	zvec, _ := json.Marshal(map[string][]float64{"z": wireVector()[:120]})
	fetch := func(base, path string, body []byte, accept string) (string, []byte) {
		t.Helper()
		method, rd := http.MethodGet, io.Reader(nil)
		if body != nil {
			method, rd = http.MethodPost, bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
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
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", base, path, resp.StatusCode, b)
		}
		return resp.Header.Get("Content-Type"), b
	}
	for _, rq := range []struct {
		path string
		body []byte
	}{{"/api/ld/region?start=30&end=90", nil}, {"/api/ld/region?start=10&end=50&rows=20:40", nil},
		{"/api/sparse/matvec", vec}, {"/api/sparse/score?rows=50:70", zvec}} {
		_, want := fetch(single.URL, rq.path, rq.body, "")
		for _, accept := range []string{"", server.OctetStream} {
			if ct, got := fetch(cluster.URL, rq.path, rq.body, accept); ct != "application/json" || !bytes.Equal(got, want) {
				t.Errorf("%s, Accept %q: the coordinator answered %s, equal to the single node's JSON: %v", rq.path, accept, ct, bytes.Equal(got, want))
			}
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

// stripBody is the body a node answers the strip request with, the Accept
// header set to accept unless it is "".
func stripBody(t testing.TB, node http.Handler, q server.Query, strip server.Window, accept string) []byte {
	t.Helper()
	method, body := http.MethodGet, io.Reader(nil)
	if sq, ok := q.(server.SparseQuery); ok {
		sq.Vec = wireVector()
		method, body = http.MethodPost, bytes.NewReader(sq.Body())
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(method, q.Path(strip), body)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	node.ServeHTTP(rec, req)
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

// FuzzSpliceScan feeds arbitrary bytes to the coordinator's binary strip
// decoder as the raw reply to an arbitrary strip request. The invariant:
// the decoder never panics; a body it accepts is exactly the asked head
// and 8 bytes for each of the strip's rows × width floats, every one
// finite, which it decodes bit for bit; and that one strip merged alone is
// the node encoder's spelling of those floats, byte for byte, which
// encoding/json reads back to the same bits.
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
		body := stripBody(f, node, q, strip, server.OctetStream)
		at := len(body) - 8*(strip.Hi-strip.Lo)*floatWidth(q) // where the floats start
		add := func(parts ...[]byte) { f.Add(bytes.Join(parts, nil), kind, start, end, lo, hi) }
		add(body)
		add(body[:len(body)/2])
		add(body[:len(body)-1])
		add(body[:len(body)-8])
		add(body, []byte{0})
		add(body, body[at:at+8])
		add(body[:at])
		add(body, []byte("}\n"))
		// The first and the last float set to bit patterns: NaNs, the
		// infinities, and finite edges.
		for _, bits := range []uint64{0x7ff8000000000000, 0xfff8000000000000, 0x7ff0000000000001, 0x7ff0000000000000,
			0xfff0000000000000, 1 << 63, 1, 0x7fefffffffffffff, 0x3ff0000000000000} {
			var f [8]byte
			binary.LittleEndian.PutUint64(f[:], bits)
			add(body[:at], f[:], body[at+8:])
			add(body[:len(body)-8], f[:])
		}
		// The head respelled.
		for _, edit := range [][2]string{{`{"`, `{"partial":true,"`}, {`"row_end"`, `"row_end" `}, {`"start":`, `"start":1`},
			{`":`, `": `}, {`{`, ` {`}, {`":`, `":[`}} {
			add(bytes.Replace(body[:at], []byte(edit[0]), []byte(edit[1]), 1), body[at:])
		}
		// The JSON answer to the same request.
		add(stripBody(f, node, q, strip, ""))
	}
	f.Add([]byte{}, uint8(0), uint16(0), uint16(1), uint16(0), uint16(1))

	f.Fuzz(func(t *testing.T, body []byte, kind uint8, start, end, lo, hi uint16) {
		rule, q, strip, ok := fuzzStrip(kind, start, end, lo, hi)
		if !ok {
			return
		}
		floats := (strip.Hi - strip.Lo) * floatWidth(q)
		if 8*floats > len(body)+4096 {
			return // no such body holds the strip: keep what is allocated below small
		}
		dst := make([]float64, floats)
		part, err := decodeStrip(rule, q, strip, server.OctetStream, body, dst)
		if err != nil {
			return
		}
		head := floatPayload(q, strip, nil, nil).AppendHead(nil)
		if len(body) != len(head)+8*floats || !bytes.HasPrefix(body, head) {
			t.Fatalf("decoder accepted %d bytes as %s and %d floats: %q", len(body), head, floats, body)
		}
		for i, f := range dst {
			if bits := binary.LittleEndian.Uint64(body[len(head)+8*i:]); bits != math.Float64bits(f) || math.IsNaN(f) || math.IsInf(f, 0) {
				t.Fatalf("float %d decoded as %v (%016x) from %016x", i, f, math.Float64bits(f), bits)
			}
		}
		alone := mergeStrips(rule, q, strip, []server.Window{strip}, []any{part}, dst)
		want := server.OK(floatPayload(q, strip, dst, nil))
		if alone.Status != http.StatusOK || !bytes.Equal(alone.Body, want.Body) {
			t.Fatalf("one strip merged alone is %d\n%s, the node encoder spells\n%s", alone.Status, alone.Body, want.Body)
		}
		var read []float64
		if _, region := q.(server.RegionQuery); region {
			var resp server.RegionResponse
			err = json.Unmarshal(alone.Body, &resp)
			for _, row := range resp.Values {
				read = append(read, row...)
			}
		} else {
			var resp struct {
				Y      []float64 `json:"y"`
				Scores []float64 `json:"scores"`
			}
			err = json.Unmarshal(alone.Body, &resp)
			read = append(resp.Y, resp.Scores...)
		}
		if err != nil || len(read) != len(dst) {
			t.Fatalf("encoding/json reads %d floats (%v) from the merged strip of %d", len(read), err, len(dst))
		}
		for i := range read {
			if math.Float64bits(read[i]) != math.Float64bits(dst[i]) {
				t.Fatalf("float %d reads back as %v, decoded %v", i, read[i], dst[i])
			}
		}
	})
}

var sinkMerged *server.Response

// BenchmarkScatterRegion: what a coordinator does with the two raw strips
// of one 80 × 80 region once they have arrived — check and decode both
// into the answer's pooled floats, spell the answer once.
func BenchmarkScatterRegion(b *testing.B) {
	nodes := wireNodes(b, false)
	q := server.RegionQuery{Start: 100, End: 180, Measure: "r2"}
	rows := server.Window{Lo: 100, Hi: 180}
	strips := []server.Window{{Lo: 100, Hi: 128}, {Lo: 128, Hi: 180}}
	bodies := [][]byte{
		stripBody(b, nodes(0, 128), q, strips[0], server.OctetStream),
		stripBody(b, nodes(128, 256), q, strips[1], server.OctetStream),
	}
	b.SetBytes(int64(len(bodies[0]) + len(bodies[1])))
	b.ReportAllocs()
	for b.Loop() {
		vals := bufpool.Floats.Get(80 * 80)
		parts := make([]any, 2)
		for k, body := range bodies {
			part, err := decodeStrip(server.MergeStack, q, strips[k], server.OctetStream, body, stripFloats(vals, rows, strips[k], 80))
			if err != nil {
				b.Fatal(err)
			}
			parts[k] = part
		}
		sinkMerged = mergeStrips(server.MergeStack, q, rows, strips, parts, vals)
		bufpool.Floats.Put(vals)
	}
}
