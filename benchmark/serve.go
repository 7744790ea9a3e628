package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/cluster"
	"ldgemm/internal/core"
	"ldgemm/internal/ldsparse"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/popsim"
	"ldgemm/internal/server"
)

// The serving workloads share one cohort and one seeded query stream.
// Clients are closed-loop: the callers are analysis pipelines that wait
// for each reply, two of them on two keep-alive connections, against
// in-process servers on real loopback sockets with one kernel thread per
// request.
const (
	serveSamples   = 2048
	serveCacheTile = 32 // 4 MiB of 128² tiles: the hot loci fit, the near-diagonal band does not
	hotLoci        = 8
	repeatWindows  = 16
	topK           = 20
	topRows        = 128
	matvecVectors  = 4
	warmupMax      = 500 * time.Millisecond
	verifyEvery    = 16 // 1 response in 16 is kept and compared bit for bit
	verifyCap      = 64 // per client and window
)

// query is one request of the stream.
type query struct {
	kind   string // region, pair, top or matvec
	path   string
	vector int  // matvec: which of the fixed input vectors
	a, b   int  // region [a,b), pair (a,b), top rows [a, a+topRows)
	repeat bool // drawn from the exact-repeat windows
}

// stream draws queries. With matvec = 0 and repeat = 0 the draws are those
// of serve_compute: 65 % region, 30 % pair, 5 % top. serve_store inserts
// 15 % matvec (leaving 55/25/5), cluster_scatter redirects 30 % of the
// regions to 16 fixed windows.
type stream struct {
	rng     *rand.Rand
	n       int
	matvec  float64
	repeat  float64
	hot     []int
	repeats [][2]int
}

func newStream(seed int64, client, n int, matvec, repeat float64) *stream {
	s := &stream{rng: rand.New(rand.NewSource(seed*7919 + int64(client))), n: n, matvec: matvec, repeat: repeat}
	// Hot loci and repeat windows are a property of the cohort, not of
	// the client: every client draws from the same ones.
	fixed := rand.New(rand.NewSource(seed))
	wmin, wmax := s.widths()
	for k := 0; k < hotLoci; k++ {
		s.hot = append(s.hot, min((2*k+1)*n/(2*hotLoci), n-wmax-8))
	}
	for k := 0; k < repeatWindows; k++ {
		w := wmin + fixed.Intn(wmax-wmin+1)
		a := fixed.Intn(n - w + 1)
		s.repeats = append(s.repeats, [2]int{a, a + w})
	}
	return s
}

// widths is the region window range, 32–128 SNPs, shrunk for tiny cohorts.
func (s *stream) widths() (int, int) { return min(32, s.n/8), min(128, s.n/4) }

func (s *stream) next() query {
	if s.rng.Float64() < s.matvec {
		return query{kind: "matvec", path: "/api/sparse/matvec", vector: s.rng.Intn(matvecVectors)}
	}
	switch u := s.rng.Float64(); {
	case u < 0.65:
		if s.rng.Float64() < s.repeat {
			w := s.repeats[s.rng.Intn(len(s.repeats))]
			return regionQuery(w[0], w[1], true)
		}
		wmin, wmax := s.widths()
		w := wmin + s.rng.Intn(wmax-wmin+1)
		a := s.rng.Intn(s.n - w + 1)
		if s.rng.Float64() < 0.8 {
			a = s.hot[s.rng.Intn(len(s.hot))] + s.rng.Intn(8)
		}
		return regionQuery(a, a+w, false)
	case u < 0.95:
		i := s.rng.Intn(s.n)
		j := s.rng.Intn(s.n - 1)
		if j >= i {
			j++
		}
		return query{kind: "pair", path: fmt.Sprintf("/api/ld?i=%d&j=%d", i, j), a: i, b: j}
	default:
		rows := min(topRows, s.n/2)
		a := s.rng.Intn(s.n - rows + 1)
		return query{kind: "top", path: fmt.Sprintf("/api/ld/top?k=%d&rows=%d:%d", topK, a, a+rows), a: a, b: a + rows}
	}
}

func regionQuery(a, b int, repeat bool) query {
	return query{kind: "region", path: fmt.Sprintf("/api/ld/region?start=%d&end=%d", a, b), a: a, b: b, repeat: repeat}
}

// localServer is an http.Server on a loopback port.
type localServer struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveLocal(h http.Handler) (*localServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &localServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		ls.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return ls, nil
}

func (ls *localServer) close() {
	ls.srv.Close()
	<-ls.done
}

// kept is a response held back for the untimed bit-for-bit comparison.
type kept struct {
	q    query
	body []byte
}

// client is one closed-loop caller on one keep-alive connection.
type client struct {
	id   int
	hc   *http.Client
	st   *stream
	buf  bytes.Buffer
	seq  int
	kept []kept
	// keepCap bounds len(kept); each window raises it by verifyCap.
	keepCap int
}

func newClient(id int, st *stream) *client {
	return &client{id: id, st: st, hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}}
}

// do sends one query and reads the whole reply into the client's buffer.
func (c *client) do(base string, q query, vectors [][]byte) (int, []byte, error) {
	var resp *http.Response
	var err error
	if q.kind == "matvec" {
		resp, err = c.hc.Post(base+q.path, "application/json", bytes.NewReader(vectors[q.vector]))
	} else {
		resp, err = c.hc.Get(base + q.path)
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, c.buf.Bytes(), err
}

// serveInst is a cohort, the servers over it, and the clients.
type serveInst struct {
	e       *env
	g       *bitmat.Matrix
	store   *ldstore.Store
	sparse  *ldsparse.Store
	paths   struct{ dense, sparse string }
	servers []*localServer
	coord   *cluster.Coordinator
	front   *localServer // what the clients talk to
	single  *localServer // cluster_scatter: the unsharded reference node
	clients []*client
	vectors [][]float64
	bodies  [][]byte
	genS    float64
	buildS  float64
}

func serveConfig() server.Config { return server.Config{Threads: 1} }

// newServeInst generates the cohort and the fixed matvec inputs.
func newServeInst(e *env, matvec, repeat float64) (*serveInst, error) {
	s := &serveInst{e: e}
	t0 := time.Now()
	g, err := popsim.Mosaic(scaled(4096, e.scale, 256), serveSamples, mosaic(e.seed))
	if err != nil {
		return nil, err
	}
	s.g, s.genS = g, time.Since(t0).Seconds()
	rng := rand.New(rand.NewSource(e.seed ^ 0x7ec))
	for v := 0; v < matvecVectors; v++ {
		x := make([]float64, g.SNPs)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		body, err := json.Marshal(server.MatVecRequest{X: x})
		if err != nil {
			return nil, err
		}
		s.vectors, s.bodies = append(s.vectors, x), append(s.bodies, body)
	}
	for c := 0; c < min(2, e.threads); c++ {
		s.clients = append(s.clients, newClient(c, newStream(e.seed, c, g.SNPs, matvec, repeat)))
	}
	return s, nil
}

func (s *serveInst) listen(h http.Handler) (*localServer, error) {
	ls, err := serveLocal(h)
	if err == nil {
		s.servers = append(s.servers, ls)
	}
	return ls, err
}

func setupServeStore(e *env) (instance, error) {
	s, err := newServeInst(e, 0.15, 0)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ld := core.Options{Blis: blis.Config{Threads: e.threads}}
	s.paths.dense = filepath.Join(e.tmp, "cohort.ldts")
	if _, err := ldstore.BuildFile(s.paths.dense, s.g, ldstore.BuildOptions{TileSize: buildTile, LD: ld}); err != nil {
		return nil, err
	}
	s.paths.sparse = filepath.Join(e.tmp, "cohort.ldss")
	if _, err := ldsparse.BuildFile(s.paths.sparse, s.g, ldsparse.BuildOptions{
		TileSize: buildTile, Threshold: sparseTau, Banded: true, Band: min(sparseBand, s.g.SNPs-1), LD: ld,
	}); err != nil {
		return nil, err
	}
	if s.store, err = ldstore.Open(s.paths.dense, ldstore.Options{CacheTiles: serveCacheTile}); err != nil {
		return nil, err
	}
	if s.sparse, err = ldsparse.Open(s.paths.sparse, ldsparse.Options{}); err != nil {
		s.close()
		return nil, err
	}
	s.buildS = time.Since(t0).Seconds()
	cfg := serveConfig()
	cfg.Store, cfg.Sparse = s.store, s.sparse
	if s.front, err = s.listen(server.New(s.g, cfg)); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func setupServeCompute(e *env) (instance, error) {
	s, err := newServeInst(e, 0, 0)
	if err != nil {
		return nil, err
	}
	if s.front, err = s.listen(server.New(s.g, serveConfig())); err != nil {
		return nil, err
	}
	return s, nil
}

func setupCluster(e *env) (instance, error) {
	s, err := newServeInst(e, 0, 0.3)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (instance, error) {
		s.close()
		return nil, err
	}
	n := s.g.SNPs
	var urls []string
	for _, r := range [][2]int{{0, n / 2}, {n / 2, n}} {
		cfg := serveConfig()
		cfg.ShardStart, cfg.ShardEnd = r[0], r[1]
		ls, err := s.listen(server.New(s.g, cfg))
		if err != nil {
			return fail(err)
		}
		urls = append(urls, ls.url)
	}
	if s.single, err = s.listen(server.New(s.g, serveConfig())); err != nil {
		return fail(err)
	}
	if s.coord, err = cluster.New(context.Background(), urls, cluster.Config{}); err != nil {
		return fail(err)
	}
	if s.front, err = s.listen(s.coord); err != nil {
		return fail(err)
	}
	return s, nil
}

func (s *serveInst) setupSplit() (float64, float64) { return s.genS, s.buildS }

func (s *serveInst) close() {
	for _, c := range s.clients {
		c.hc.CloseIdleConnections()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	for _, ls := range s.servers {
		ls.close()
	}
	s.servers = nil
	if s.store != nil {
		s.store.Close()
	}
	if s.sparse != nil {
		s.sparse.Close()
	}
}

// window is what the clients recorded between two instants.
type window struct {
	byKind      map[string][]float64
	ops, failed int
	regionBytes int64
	elapsed     float64
}

// rateSlice is how long the clients run between two samples of the
// host's speed; a window's rate is the median over its slices, so a host
// stall shorter than half the window does not move it.
const rateSlice = 250 * time.Millisecond

// add folds another slice into the window.
func (w *window) add(o window) {
	w.ops += o.ops
	w.failed += o.failed
	w.regionBytes += o.regionBytes
	w.elapsed += o.elapsed
	for k, v := range o.byKind {
		w.byKind[k] = append(w.byKind[k], v...)
	}
}

// drive runs every client against base until d has passed and the
// requests in flight have come back. With record false nothing is tallied
// (warm-up); with keep false no response is held back for verification.
func (s *serveInst) drive(base string, d time.Duration, record, keep bool, tr *tracer) window {
	type tally struct {
		byKind      map[string][]float64
		ops, failed int
		regionBytes int64
	}
	tallies := make([]tally, len(s.clients))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for ci, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[ci]
			t.byKind = make(map[string][]float64)
			for time.Now().Before(deadline) {
				q := c.st.next()
				c.seq++
				id := tr.start("http."+q.kind, s.layer(), 0, c.id*1_000_000+c.seq, false)
				t0 := time.Now()
				code, body, err := c.do(base, q, s.bodies)
				dt := time.Since(t0).Seconds()
				tr.end(id, nil)
				if !record {
					continue
				}
				t.ops++
				// Every reply must be a 200 holding one JSON object;
				// one in verifyEvery is kept and compared in full later.
				if err != nil || code != http.StatusOK || len(body) < 2 || body[0] != '{' || body[len(body)-2] != '}' {
					t.failed++
					continue
				}
				t.byKind[q.kind] = append(t.byKind[q.kind], dt)
				if q.kind == "region" {
					t.regionBytes += int64(len(body))
					if !q.repeat {
						t.byKind["region_fresh"] = append(t.byKind["region_fresh"], dt)
					}
				}
				if keep && c.seq%verifyEvery == 0 && len(c.kept) < c.keepCap {
					c.kept = append(c.kept, kept{q: q, body: bytes.Clone(body)})
				}
			}
		}()
	}
	wg.Wait()
	w := window{byKind: make(map[string][]float64)}
	for _, t := range tallies {
		w.add(window{byKind: t.byKind, ops: t.ops, failed: t.failed, regionBytes: t.regionBytes})
	}
	w.elapsed = time.Since(start).Seconds()
	return w
}

func (s *serveInst) layer() string {
	if s.coord != nil {
		return "cluster"
	}
	return "server"
}

// vars reads a /debug/vars tree.
func fetchVars(base string) (map[string]any, error) {
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v map[string]any
	err = json.NewDecoder(resp.Body).Decode(&v)
	http.DefaultClient.CloseIdleConnections()
	return v, err
}

func num(v any) float64 {
	f, _ := v.(float64)
	return f
}

// shardSum adds one counter over every replica of a coordinator's vars.
func shardSum(vars map[string]any, counter string) float64 {
	var sum float64
	shards, _ := vars["shards"].(map[string]any)
	for _, sv := range shards {
		if m, ok := sv.(map[string]any); ok {
			sum += num(m[counter])
		}
	}
	return sum
}

// driveSliced is a window of at least d: slices of rateSlice, the host's
// speed sampled before each. It returns the whole window, the rate of
// correct responses in each slice, and the speed samples.
func (s *serveInst) driveSliced(base string, d time.Duration, keep bool, tr *tracer) (window, []float64, []float64) {
	for _, c := range s.clients {
		c.keepCap = len(c.kept) + verifyCap
	}
	w := window{byKind: make(map[string][]float64)}
	var rates, speed []float64
	for start := time.Now(); time.Since(start) < d; {
		speed = append(speed, sampleSpeed(s.e.threads))
		slice := s.drive(base, min(rateSlice, d), true, keep, tr)
		rates = append(rates, float64(slice.ops-slice.failed)/slice.elapsed)
		w.add(slice)
	}
	return w, rates, speed
}

// warmup is how long the clients run untallied before a window of d.
func warmup(d time.Duration) time.Duration { return min(warmupMax, d/4) }

func (s *serveInst) measure(d time.Duration, tr *tracer) (*measurement, error) {
	s.drive(s.front.url, warmup(d), false, false, nil)
	v0, err := fetchVars(s.front.url)
	if err != nil {
		return nil, err
	}
	before := snap()
	w, rates, speed := s.driveSliced(s.front.url, d, true, tr)
	after := snap()
	v1, err := fetchVars(s.front.url)
	if err != nil {
		return nil, err
	}
	m := &measurement{
		primary: w.byKind["region"], byKind: w.byKind, ops: w.ops, failed: w.failed,
		throughput: median(rates), busySeconds: w.elapsed, driverThreads: 1, speed: speed,
		before: before, after: after,
		allocMBPerOp:   ratio(float64(after.alloc-before.alloc)/1e6, float64(w.ops)),
		mallocsPerOp:   ratio(float64(after.malloc-before.malloc), float64(w.ops)),
		bytesPerRegion: ratio(float64(w.regionBytes), float64(len(w.byKind["region"]))),
		storeQueries:   len(w.byKind["region"]) + len(w.byKind["pair"]) + len(w.byKind["top"]),
		vars:           make(map[string]float64),
	}
	if len(m.primary) == 0 {
		return nil, fmt.Errorf("no region request completed in %v", d)
	}
	delta := func(k string) float64 { return num(v1[k]) - num(v0[k]) }
	if s.coord == nil {
		m.vars["server.store_served_ratio"] = ratio(delta("store_served"), float64(m.storeQueries))
		m.vars["server.shed"] = delta("shed")
		return m, nil
	}
	hits, misses := delta("result_cache_hits"), delta("result_cache_misses")
	m.vars["cluster.result_cache_hit_rate"] = ratio(hits, hits+misses)
	m.vars["cluster.coalesced"] = delta("coalesced_requests")
	m.vars["cluster.shard_calls_per_request"] = ratio(shardSum(v1, "requests")-shardSum(v0, "requests"), float64(w.ops))
	m.vars["cluster.retries"] = shardSum(v1, "retries") - shardSum(v0, "retries")
	m.vars["cluster.hedges"] = shardSum(v1, "hedges") - shardSum(v0, "hedges")
	return m, nil
}

// ---- correctness -------------------------------------------------------

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// directRegion is the library's answer for a region: the store's when one
// backs the server, the dense compute otherwise.
func (s *serveInst) directRegion(a, b int) ([]float64, error) {
	if s.store != nil {
		return s.store.Region(a, b)
	}
	res, err := core.Matrix(s.g.Slice(a, b), core.Options{Blis: blis.Config{Threads: 1}})
	if err != nil {
		return nil, err
	}
	return res.R2, nil
}

func (s *serveInst) directPair(i, j int) (float64, error) {
	if s.store != nil {
		return s.store.At(i, j)
	}
	return core.PairLD(s.g, i, j).R2, nil
}

// verify compares every kept response bit for bit with the direct
// library result (serve_*) or byte for byte with the unsharded node's
// response (cluster_scatter).
func (s *serveInst) verify() (int, int, error) {
	attempted, bad := 0, 0
	ref := newClient(-1, nil)
	defer ref.hc.CloseIdleConnections()
	for _, c := range s.clients {
		for _, k := range c.kept {
			attempted++
			var ok bool
			if s.single != nil {
				code, body, err := ref.do(s.single.url, k.q, s.bodies)
				ok = err == nil && code == http.StatusOK && bytes.Equal(body, k.body)
			} else {
				ok = s.matchesLibrary(k)
			}
			if !ok {
				bad++
			}
		}
		c.kept = nil
	}
	return attempted, bad, nil
}

func (s *serveInst) matchesLibrary(k kept) bool {
	switch k.q.kind {
	case "region":
		var resp server.RegionResponse
		if json.Unmarshal(k.body, &resp) != nil || resp.Start != k.q.a || resp.End != k.q.b {
			return false
		}
		want, err := s.directRegion(k.q.a, k.q.b)
		w := k.q.b - k.q.a
		if err != nil || len(resp.Values) != w {
			return false
		}
		for i, row := range resp.Values {
			if !sameBits(row, want[i*w:(i+1)*w]) {
				return false
			}
		}
		return true
	case "pair":
		var resp server.PairResponse
		if json.Unmarshal(k.body, &resp) != nil || resp.I != k.q.a || resp.J != k.q.b {
			return false
		}
		want, err := s.directPair(k.q.a, k.q.b)
		return err == nil && math.Float64bits(resp.R2) == math.Float64bits(want)
	case "top":
		var resp server.TopResponse
		if json.Unmarshal(k.body, &resp) != nil || len(resp.Pairs) != topK {
			return false
		}
		if s.store != nil {
			want, err := s.store.TopRange(topK, k.q.a, k.q.b)
			if err != nil || len(want) != topK {
				return false
			}
			for i, p := range resp.Pairs {
				if p.I != want[i].I || p.J != want[i].J || math.Float64bits(p.R2) != math.Float64bits(want[i].Value) {
					return false
				}
			}
			return true
		}
		return s.isTop(resp.Pairs, k.q.a, k.q.b)
	case "matvec":
		var resp server.MatVecResponse
		if json.Unmarshal(k.body, &resp) != nil {
			return false
		}
		want, err := s.sparse.MatVec(s.vectors[k.q.vector])
		return err == nil && sameBits(resp.Y, want)
	}
	return false
}

// isTop checks a computed top list against a brute-force scan of the row
// window: every listed pair carries core.PairLD's r², and no pair left
// out beats the weakest one listed.
func (s *serveInst) isTop(pairs []server.PairResponse, r0, r1 int) bool {
	listed := make(map[[2]int]bool)
	weakest := math.Inf(1)
	for _, p := range pairs {
		if p.I < r0 || p.I >= r1 || p.J <= p.I ||
			math.Float64bits(p.R2) != math.Float64bits(core.PairLD(s.g, p.I, p.J).R2) {
			return false
		}
		listed[[2]int{p.I, p.J}] = true
		weakest = min(weakest, p.R2)
	}
	for i := r0; i < r1; i++ {
		for j := i + 1; j < s.g.SNPs; j++ {
			if !listed[[2]int{i, j}] && core.PairLD(s.g, i, j).R2 > weakest+1e-12 {
				return false
			}
		}
	}
	return true
}

// ---- direct probes of the layers under the server ----------------------

func (s *serveInst) probe(tr *tracer, plain, traced *measurement, out metrics) error {
	if s.coord != nil {
		return s.probeCluster(traced, out)
	}
	pc := newClient(-1, newStream(s.e.seed^0x9b0be, 0, s.g.SNPs, 0, 0))
	defer pc.hc.CloseIdleConnections()
	// get sends q inside a span and returns the span, its duration and the body size.
	get := func(name string, op int, q query) (id int, seconds float64, size int, err error) {
		id, seconds, err = tr.timed(name, "server", 0, op, false, func() error {
			code, body, err := pc.do(s.front.url, q, s.bodies)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("%s answered %d", q.path, code)
			}
			size = len(body)
			return err
		})
		return id, seconds, size, err
	}
	// server over the layer below: a region or pair over HTTP, then the
	// same window straight from the library as its child. Each query is
	// sent once beforehand so both sides see warm tiles.
	var regionSelf, regionTotal, pairSelf []float64
	var regionBytes int
	for op := 1; len(regionSelf) < 100 || len(pairSelf) < 100; op++ {
		q := pc.st.next()
		if q.kind == "top" {
			continue
		}
		if _, _, err := pc.do(s.front.url, q, s.bodies); err != nil {
			return err
		}
		parent, total, size, err := get("http."+q.kind+"[probe]", op, q)
		if err != nil {
			return err
		}
		_, direct, err := tr.timed("library."+q.kind, s.below(), parent, op, true, func() error {
			var err error
			if q.kind == "region" {
				_, err = s.directRegion(q.a, q.b)
			} else {
				_, err = s.directPair(q.a, q.b)
			}
			return err
		})
		if err != nil {
			return err
		}
		if q.kind == "region" {
			regionSelf, regionTotal = append(regionSelf, total-direct), append(regionTotal, total)
			regionBytes += size
		} else {
			pairSelf = append(pairSelf, total-direct)
		}
	}
	out["server.region_self_ms"] = median(regionSelf) * 1e3
	out["server.region_self_share"] = ratio(median(regionSelf), median(regionTotal))
	out["server.encode_mb_per_s"] = ratio(float64(regionBytes)/float64(len(regionSelf))/1e6, median(regionSelf))
	out["server.pair_self_us"] = median(pairSelf) * 1e6
	if s.store == nil {
		return nil
	}

	// ldsparse: Store.MatVec directly, and under the HTTP operator.
	var direct, self []float64
	before := snap()
	for r := 0; r < 5; r++ {
		q := query{kind: "matvec", path: "/api/sparse/matvec", vector: r % matvecVectors}
		parent, total, _, err := get("http.matvec[probe]", r+1, q)
		if err != nil {
			return err
		}
		_, d, err := tr.timed("ldsparse.Store.MatVec", "ldsparse", parent, r+1, true,
			func() error { _, err := s.sparse.MatVec(s.vectors[q.vector]); return err })
		if err != nil {
			return err
		}
		direct, self = append(direct, d), append(self, total-d)
	}
	after := snap()
	p0, p1 := before.sparse, after.sparse
	calls := float64(p1.MatVecs - p0.MatVecs)
	out["server.matvec_self_ms"] = median(self) * 1e3
	out["ldsparse.matvec_ms"] = median(direct) * 1e3
	out["ldsparse.entries_per_s"] = ratio(float64(p1.EntriesVisited-p0.EntriesVisited), float64(p1.MatVecNanos-p0.MatVecNanos)/1e9)
	out["ldsparse.tiles_read_per_matvec"] = ratio(float64(p1.TilesRead-p0.TilesRead), calls)
	out["ldsparse.cache_hit_rate"] = ratio(float64(p1.CacheHits-p0.CacheHits), float64(p1.CacheHits-p0.CacheHits+p1.CacheMisses-p0.CacheMisses))
	// Process-wide, so the HTTP half of each pair is in it too.
	out["ldsparse.mallocs_per_matvec"] = ratio(float64(after.malloc-before.malloc), calls)
	return s.probeStoreReads(tr, out)
}

// below names the layer that answers a query under the server.
func (s *serveInst) below() string {
	if s.store != nil {
		return "ldstore"
	}
	return "core"
}

// probeStoreReads times dense-store reads on handles of their own: one
// whose cache holds every tile, one whose cache holds a single tile.
func (s *serveInst) probeStoreReads(tr *tracer, out metrics) error {
	warm, err := ldstore.Open(s.paths.dense, ldstore.Options{CacheTiles: 1 << 16})
	if err != nil {
		return err
	}
	defer warm.Close()
	cold, err := ldstore.Open(s.paths.dense, ldstore.Options{CacheTiles: 1})
	if err != nil {
		return err
	}
	defer cold.Close()
	timed := func(name string, op int, call func() error) (float64, error) {
		_, d, err := tr.timed(name, "ldstore", 0, op, false, call)
		return d, err
	}
	st := newStream(s.e.seed^0x57012e, 0, s.g.SNPs, 0, 0)
	var warmS, coldS, atS, topS []float64
	for op := 1; len(warmS) < 200 || len(atS) < 200 || len(topS) < 10; op++ {
		q := st.next()
		var d float64
		var err error
		switch q.kind {
		case "region":
			if _, err = warm.Region(q.a, q.b); err != nil {
				return err
			}
			if d, err = timed("ldstore.Store.Region[warm]", op, func() error { _, err := warm.Region(q.a, q.b); return err }); err == nil {
				warmS = append(warmS, d)
				if d, err = timed("ldstore.Store.Region[cold]", op, func() error { _, err := cold.Region(q.a, q.b); return err }); err == nil {
					coldS = append(coldS, d)
				}
			}
		case "pair":
			if d, err = timed("ldstore.Store.At[cold]", op, func() error { _, err := cold.At(q.a, q.b); return err }); err == nil {
				atS = append(atS, d)
			}
		case "top":
			if d, err = timed("ldstore.Store.TopRange", op, func() error { _, err := s.store.TopRange(topK, q.a, q.b); return err }); err == nil {
				topS = append(topS, d)
			}
		}
		if err != nil {
			return err
		}
	}
	out["ldstore.region_warm_us"] = median(warmS) * 1e6
	out["ldstore.region_cold_us"] = median(coldS) * 1e6
	out["ldstore.at_cold_us"] = median(atS) * 1e6
	out["ldstore.top_ms"] = median(topS) * 1e3
	return nil
}

// probeCluster runs the same stream against the unsharded node: the
// cluster's cost and gain are read against it.
func (s *serveInst) probeCluster(traced *measurement, out metrics) error {
	d := time.Duration(traced.busySeconds * float64(time.Second))
	s.drive(s.single.url, warmup(d), false, false, nil)
	w, rates, _ := s.driveSliced(s.single.url, d, false, nil)
	if len(w.byKind["region"]) == 0 || w.failed > 0 {
		return fmt.Errorf("single node: %d regions, %d failures", len(w.byKind["region"]), w.failed)
	}
	out["cluster.overhead_ms"] = (median(traced.byKind["region_fresh"]) - median(w.byKind["region"])) * 1e3
	out["cluster.qps_vs_single"] = ratio(traced.throughput, median(rates))
	return nil
}
