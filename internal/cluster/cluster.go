package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ldgemm/internal/bufpool"
	"ldgemm/internal/server"
)

// Config tunes the coordinator's resilient shard client. The zero value
// picks sane defaults everywhere.
type Config struct {
	// ShardTimeout bounds each HTTP attempt to a shard. Default 30s.
	ShardTimeout time.Duration
	// Retries is the number of re-attempts after a failed attempt
	// (transport error or 5xx). Default 2; negative disables retries.
	Retries int
	// RetryBackoff is the sleep before the first retry, doubling per
	// retry up to one second. Default 25ms.
	RetryBackoff time.Duration
	// BreakerFailures is the consecutive-failure count that opens a
	// shard's circuit breaker. Default 5.
	BreakerFailures int
	// BreakerCooldown is how long an open breaker fails fast before
	// admitting a half-open probe. Default 5s.
	BreakerCooldown time.Duration
	// ResultCacheBytes caps the fingerprint-keyed result cache over
	// complete pair/region/top responses. 0 picks the 64 MiB default;
	// negative disables the cache.
	ResultCacheBytes int64
}

// bootstrapTimeout bounds the initial /api/info sweep in New.
const bootstrapTimeout = 10 * time.Second

func (c Config) normalize() Config {
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 30 * time.Second
	}
	switch {
	case c.Retries == 0:
		c.Retries = 2
	case c.Retries < 0:
		c.Retries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.ResultCacheBytes == 0 {
		c.ResultCacheBytes = 64 << 20
	}
	return c
}

// Coordinator fronts a set of shard replica groups with the single-node
// HTTP API, served from the same query definitions (server.Definitions):
// it parses and validates a request exactly as a node would, sends each
// strip the query's window overlaps the canonical spelling narrowed to
// that strip's rows, and merges the answers by the definition's rule;
// queries that need no row ownership forward to any healthy replica.
// Within a group, calls go to the healthiest replica and fail over
// through the rest before the strip is declared lost. Identical in-flight
// requests coalesce into one shard fan-out, and complete responses are
// cached under the dataset fingerprint.
type Coordinator struct {
	hc      *http.Client
	part    partition
	groups  []*replicaGroup     // ordered by strip, parallel to part.ranges
	info    server.InfoResponse // as every replica advertised, minus the shard range
	m       *metrics
	cache   *resultCache // nil when disabled
	flight  *flightGroup
	handler http.Handler
	rr      atomic.Uint64 // round-robin cursor for proxied endpoints
}

// New bootstraps a coordinator. Each shard URL spec names one replica
// group — `|`-separated replicas serving the same strip, e.g.
// "urlA|urlB" — and New fetches /api/info from every replica, checks
// that all advertise the same matrix and dataset fingerprint and that
// replicas within a group advertise the same shard range, then assembles
// the partition map from the per-group ranges. A single group with no
// advertised range is treated as owning the whole index range. Every
// replica must be reachable during bootstrap; afterwards the cluster
// degrades gracefully.
func New(ctx context.Context, shardURLs []string, cfg Config) (*Coordinator, error) {
	cfg = cfg.normalize()
	groups, err := parseGroupSpecs(shardURLs)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{}
	ctx, cancel := context.WithTimeout(ctx, bootstrapTimeout)
	defer cancel()
	infos := make([][]server.InfoResponse, len(groups))
	for gi, group := range groups {
		infos[gi] = make([]server.InfoResponse, len(group))
		for ri, base := range group {
			if err := fetchJSON(ctx, hc, base+"/api/info", &infos[gi][ri]); err != nil {
				return nil, fmt.Errorf("cluster: bootstrapping shard %s: %w", base, err)
			}
		}
	}

	first := infos[0][0]
	n := first.SNPs
	ranges := make([]server.Window, len(groups))
	for gi, group := range groups {
		for ri, info := range infos[gi] {
			base := group[ri]
			if info.SNPs != n || info.Samples != first.Samples {
				return nil, fmt.Errorf("cluster: shard %s serves a %d×%d matrix, shard %s a %d×%d one",
					base, info.SNPs, info.Samples, groups[0][0], n, first.Samples)
			}
			if info.Fingerprint != first.Fingerprint {
				return nil, fmt.Errorf("cluster: shard %s advertises dataset fingerprint %q, shard %s %q — replicas must serve the same dataset",
					base, info.Fingerprint, groups[0][0], first.Fingerprint)
			}
			if ri > 0 && !sameShardRange(info.Shard, infos[gi][0].Shard) {
				return nil, fmt.Errorf("cluster: replicas %s and %s advertise different shard ranges (%s vs %s) — a replica group must serve one strip",
					base, group[0], shardRangeString(info.Shard), shardRangeString(infos[gi][0].Shard))
			}
		}
		switch {
		case infos[gi][0].Shard != nil:
			ranges[gi] = server.Window{Lo: infos[gi][0].Shard.Start, Hi: infos[gi][0].Shard.End}
		case len(groups) == 1:
			ranges[gi] = server.Window{Hi: n} // lone unsharded group
		default:
			return nil, fmt.Errorf("cluster: shard %s advertises no shard range", group[0])
		}
	}
	part, order, err := newPartition(ranges, n)
	if err != nil {
		return nil, err
	}

	co := &Coordinator{hc: hc, part: part, info: first, flight: newFlightGroup()}
	co.info.Shard = nil
	if cfg.ResultCacheBytes > 0 {
		co.cache = newResultCache(cfg.ResultCacheBytes)
	}
	co.groups = make([]*replicaGroup, len(order))
	for k, idx := range order {
		g := &replicaGroup{}
		for _, base := range groups[idx] {
			g.replicas = append(g.replicas, newShardClient(base, hc, cfg, &shardMetrics{}))
		}
		co.groups[k] = g
	}
	co.m = newMetrics(co)
	lim := server.Limits{SNPs: n, Sparse: first.Sparse != nil}
	mux := server.NewMux(lim, co.m.Metrics, co.execute, nil)
	mux.HandleFunc("GET /readyz", co.handleReadyz)
	mux.HandleFunc("GET /api/info", co.handleInfo)
	co.handler = server.Observe(co.m.Metrics, nil, mux)
	return co, nil
}

// sameShardRange reports whether two advertised shard ranges agree
// (both absent counts as agreement: the unsharded lone-group case).
func sameShardRange(a, b *server.ShardRange) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Start == b.Start && a.End == b.End
}

func shardRangeString(r *server.ShardRange) string {
	if r == nil {
		return "none"
	}
	return fmt.Sprintf("[%d,%d)", r.Start, r.End)
}

// fetchJSON is the plain bootstrap fetch — no breaker or retries yet,
// because the partition map that organises them does not exist until the
// info sweep completes.
func fetchJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// ServeHTTP implements http.Handler.
func (co *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	co.handler.ServeHTTP(w, r)
}

// VarsHandler exposes the coordinator metric surface for a separate
// admin listener.
func (co *Coordinator) VarsHandler() http.Handler { return http.HandlerFunc(co.m.ServeVars) }

// Close releases idle shard connections.
func (co *Coordinator) Close() { co.hc.CloseIdleConnections() }

// handleReadyz reports ready while at least one replica's breaker admits
// traffic: a degraded cluster still serves partial answers, but a cluster
// with every circuit open cannot answer anything.
func (co *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	for _, g := range co.groups {
		if g.admitting() {
			server.OK(map[string]string{"status": "ok"}).Write(w)
			return
		}
	}
	server.Errorf(http.StatusServiceUnavailable, "all shard breakers open").Write(w)
}

// ReplicaInfo is one replica's entry in the cluster info payload.
type ReplicaInfo struct {
	URL     string `json:"url"`
	Breaker string `json:"breaker"`
}

// ShardInfo is one replica group's entry in the cluster info payload.
// URL and Breaker describe the first-configured replica, kept for
// compatibility with single-replica deployments.
type ShardInfo struct {
	URL      string        `json:"url"`
	Start    int           `json:"start"`
	End      int           `json:"end"`
	Breaker  string        `json:"breaker"`
	Replicas []ReplicaInfo `json:"replicas,omitempty"`
}

// InfoResponse is the coordinator's /api/info payload: the single-node
// info fields (from bootstrap) plus the cluster topology.
type InfoResponse struct {
	server.InfoResponse
	Shards []ShardInfo `json:"shards"`
}

func (co *Coordinator) handleInfo(w http.ResponseWriter, r *http.Request) {
	resp := InfoResponse{InfoResponse: co.info}
	for i, g := range co.groups {
		state, _ := g.replicas[0].breaker.snapshot()
		si := ShardInfo{
			URL:   g.replicas[0].base,
			Start: co.part.ranges[i].Lo, End: co.part.ranges[i].Hi,
			Breaker: state.String(),
		}
		if len(g.replicas) > 1 {
			for _, rep := range g.replicas {
				rstate, _ := rep.breaker.snapshot()
				si.Replicas = append(si.Replicas, ReplicaInfo{URL: rep.base, Breaker: rstate.String()})
			}
		}
		resp.Shards = append(resp.Shards, si)
	}
	server.OK(resp).Write(w)
}

// execute is the coordinator's Executor. The canonical spelling of the
// query over its whole window is the coalesce and result-cache key, so
// every spelling of one request — measure= omitted or r2, rows= omitted
// or the full window — is one entry and one fan-out. Its clients get JSON,
// whatever they accept: the raw spelling is the shard hop's alone.
func (co *Coordinator) execute(ctx context.Context, d *server.Definition, q server.Query, _ bool) *server.Response {
	rows, _ := q.Rows()
	if d.AnyShard {
		return co.forward(ctx, q.Path(rows))
	}
	key := q.Path(rows)
	if sq, ok := q.(server.SparseQuery); ok {
		// Here the vector is the query, so its digest joins the key. Only
		// this request reads it — the digest, then the shard body scatter
		// spells from it — so it goes back once the answer is in.
		key += " vec=" + vecDigest(sq.Vec)
		defer bufpool.Floats.Put(sq.Vec)
	}
	return co.serve(ctx, key, func(ctx context.Context) *server.Response {
		return co.scatter(ctx, d, q, rows)
	})
}

// serve answers a cacheable, coalescable query: the result cache is
// consulted first, then concurrent identical requests collapse into one
// execution of fetch whose response every caller shares, and complete
// 200 answers are admitted to the cache. The key is prefixed by the
// dataset fingerprint, so a coordinator bootstrapped against a different
// dataset can never collide. fetch runs detached from any single
// caller's context — its result is shared work — but stays bounded by
// the per-attempt shard timeouts and retry budget.
func (co *Coordinator) serve(ctx context.Context, key string, fetch func(ctx context.Context) *server.Response) *server.Response {
	key = co.info.Fingerprint + " " + key
	if co.cache != nil {
		if resp, ok := co.cache.get(key); ok {
			return resp
		}
	}
	ctx = context.WithoutCancel(ctx)
	resp, shared := co.flight.do(key, func() *server.Response {
		resp := fetch(ctx)
		if co.cache != nil && cacheable(resp) {
			co.cache.put(key, resp)
		}
		return resp
	})
	if shared {
		co.m.coalesced.Add(1)
	}
	return resp
}

// scatter sends every strip q's window overlaps the canonical spelling
// narrowed to that strip's rows, concurrently, and merges the answers by
// the definition's rule. Within each group the call routes to the
// healthiest replica and fails over through the rest. A float strip is
// asked for raw, and read straight into its rows of the answer's buffer.
func (co *Coordinator) scatter(ctx context.Context, d *server.Definition, q server.Query, rows server.Window) *server.Response {
	owners := co.part.overlapping(rows.Lo, rows.Hi)
	body := q.Body()
	var accept string
	var width int
	var vals []float64 // the float answer, rows × width, pooled
	if d.Merge == server.MergeStack || d.Merge == server.MergeConcat {
		accept, width = server.OctetStream, floatWidth(q)
		vals = bufpool.Floats.Get((rows.Hi - rows.Lo) * width)
		defer bufpool.Floats.Put(vals)
	}
	strips := make([]server.Window, len(owners))
	parts := make([]any, len(owners))
	errs := make([]error, len(owners))
	var wg sync.WaitGroup
	for k, shard := range owners {
		strips[k] = rows.Intersect(co.part.ranges[shard])
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := co.groups[shard].call(ctx, d.Method, q.Path(strips[k]), body, accept)
			if errs[k] = err; err != nil {
				return
			}
			var dst []float64
			if vals != nil {
				dst = stripFloats(vals, rows, strips[k], width)
			}
			parts[k], errs[k] = decodeStrip(d.Merge, q, strips[k], rep.contentType, rep.body, dst)
			if d.Merge != server.MergeNone {
				// What the merge keeps of the body is decoded out of it.
				// MergeNone's one body is the answer itself, relayed whole,
				// and stays out of the pool.
				bufpool.Bytes.Put(rep.body)
			}
		}()
	}
	wg.Wait()

	// A terminal 4xx anywhere is relayed verbatim: the request itself is
	// wrong, and every shard would say so. A strip whose whole replica
	// group is down degrades the answer where the merge rule can mark the
	// hole and fails it where it cannot; all strips down always fails it.
	var failed []string
	var lastErr error
	for k, err := range errs {
		if err == nil {
			continue
		}
		if resp := terminal(err); resp != nil {
			return resp
		}
		parts[k] = nil
		failed = append(failed, co.groups[owners[k]].names())
		lastErr = err
	}
	switch {
	case len(failed) == len(owners):
		return server.Errorf(http.StatusBadGateway, "all owner shards failed: %v", lastErr)
	case len(failed) > 0 && !d.Merge.PartialOK():
		return server.Errorf(http.StatusBadGateway, "%s lost strips served by %s", d.Path, strings.Join(failed, ","))
	case len(failed) > 0:
		co.m.partials.Add(1)
	}
	if d.Merge == server.MergeNone {
		return &server.Response{Status: http.StatusOK, Body: parts[0].([]byte)}
	}
	resp := mergeStrips(d.Merge, q, rows, strips, parts, vals)
	resp.Failed = strings.Join(failed, ",")
	return resp
}

// forward sends a query that needs no row ownership to any healthy
// replica. The round-robin cursor spreads the load across groups;
// breaker-open replicas fail fast and the next group is tried.
func (co *Coordinator) forward(ctx context.Context, pathQuery string) *server.Response {
	first := int(co.rr.Add(1)) % len(co.groups)
	var lastErr error
	for k := range co.groups {
		g := co.groups[(first+k)%len(co.groups)]
		rep, err := g.call(ctx, http.MethodGet, pathQuery, nil, "")
		if err == nil {
			co.m.proxied.Add(1)
			return &server.Response{Status: http.StatusOK, Body: rep.body}
		}
		if resp := terminal(err); resp != nil {
			return resp
		}
		lastErr = err
	}
	return server.Errorf(http.StatusBadGateway, "all shards failed: %v", lastErr)
}

// terminal returns the shard's own answer when err is a deliberate 4xx —
// the shard is healthy and rejected the request itself — to be relayed
// verbatim, and nil for any failure of the shard.
func terminal(err error) *server.Response {
	var he *HTTPError
	if errors.As(err, &he) && he.Status < 500 {
		return &server.Response{Status: he.Status, Body: he.Body}
	}
	return nil
}

// vecDigest hashes a vector's exact bit pattern for cache/coalesce keys:
// two requests share an entry only when every entry is bit-identical.
func vecDigest(v []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
