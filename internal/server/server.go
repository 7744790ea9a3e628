// Package server exposes a loaded genomic dataset over HTTP as a small
// LD query service: per-pair statistics, dense regional matrices,
// strongest associations, pruning, haplotype blocks, and ω scans — the
// query patterns a GWAS browser issues against an LD backend. Heavy
// endpoints are bounded (region width caps, top-K caps) so a single
// request cannot compute an unbounded n² workload.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/bufpool"
	"ldgemm/internal/core"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/omega"
	"ldgemm/internal/stats"
)

// Config bounds the service.
type Config struct {
	// MaxRegionSNPs caps the width of a dense region request (default 512,
	// also for any value below 1: a node is never uncapped).
	MaxRegionSNPs int
	// MaxTopK caps the top-pairs list (default 1000, likewise for any
	// value below 1).
	MaxTopK int
	// Threads for the LD kernels (default GOMAXPROCS via blis).
	Threads int
	// RequestTimeout bounds each request's total handling time; past it
	// the request context is cancelled, the kernel drivers abort at their
	// next phase boundary, and the client gets 504. 0 disables.
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently-executing heavy (LD-computing)
	// requests across the region/top/prune/blocks/omega endpoints;
	// excess requests are shed with 503 + Retry-After: 1. 0 disables.
	MaxInFlight int
	// AccessLog, when non-nil, receives one structured line per request.
	AccessLog *slog.Logger
	// ShardStart/ShardEnd, when ShardEnd > 0, declare this server a
	// cluster shard owning the SNP row range [ShardStart, ShardEnd): it
	// still loads the full matrix (cross-range pairs need both SNP
	// vectors) but answers /api/ld, /api/ld/region, and /api/ld/top only
	// for pairs whose smaller index it owns, rejecting misrouted queries
	// with 421 so a partition mismatch surfaces instead of double-serving.
	// The whole-matrix analysis endpoints (prune/blocks/omega) are
	// unaffected. Both zero (the default) means unsharded.
	ShardStart, ShardEnd int
	// Store, when non-nil, is a complete store for the dataset: /api/ld,
	// /api/ld/region, and /api/ld/top requests are served from its tiles
	// instead of recomputed, and fall back to on-the-fly compute on any
	// store error. A store whose fingerprint does not match the matrix, or
	// a pruned one, is silently ignored (cmd/ldserver rejects either loudly
	// before it gets here).
	Store *ldstore.Store
	// Sparse, when non-nil, is a pruned store for the dataset, enabling
	// the POST /api/sparse/matvec and /api/sparse/score operators. Gated
	// like Store: a complete store or a fingerprint mismatch is silently
	// ignored here and rejected loudly by cmd/ldserver.
	Sparse *ldstore.Store
}

func (c Config) normalize() Config {
	if c.MaxRegionSNPs <= 0 {
		c.MaxRegionSNPs = 512
	}
	if c.MaxTopK <= 0 {
		c.MaxTopK = 1000
	}
	return c
}

// Server serves LD queries over one genomic matrix.
type Server struct {
	g       *bitmat.Matrix
	cfg     Config
	handler http.Handler // the mux wrapped in the lifecycle middleware
	metrics *metrics
	store   *ldstore.Store // nil without a (fingerprint-matched) complete store
	sparse  *ldstore.Store // nil without a (fingerprint-matched) pruned store
	// freqs, poly, and fingerprint are precomputed at construction so
	// /api/info and /api/freq never rescan the matrix per request.
	freqs       []float64
	poly        int
	fingerprint string
	// ready flips once construction — matrix scan plus optional store
	// wiring — has finished; /readyz reports 503 until then.
	ready atomic.Bool
}

// New builds a Server for the matrix.
func New(g *bitmat.Matrix, cfg Config) *Server {
	fp := g.Fingerprint()
	s := &Server{
		g: g, cfg: cfg.normalize(),
		freqs:       core.AlleleFrequencies(g),
		fingerprint: fmt.Sprintf("%016x", fp),
		metrics:     newMetrics(),
	}
	if s.cfg.ShardEnd > g.SNPs {
		s.cfg.ShardEnd = g.SNPs
	}
	if s.cfg.ShardStart < 0 || s.cfg.ShardEnd <= s.cfg.ShardStart {
		s.cfg.ShardStart, s.cfg.ShardEnd = 0, 0 // degenerate range: unsharded
	}
	if cfg.Store != nil && !cfg.Store.Pruned() && cfg.Store.Fingerprint() == fp {
		s.store = cfg.Store
	}
	if cfg.Sparse != nil && cfg.Sparse.Pruned() && cfg.Sparse.Fingerprint() == fp {
		s.sparse = cfg.Sparse
		s.metrics.sparseResident.Set(cfg.Sparse.Info().ResidentBytes)
	}
	for i := 0; i < g.SNPs; i++ {
		if c := g.DerivedCount(i); c > 0 && c < g.Samples {
			s.poly++
		}
	}
	s.metrics.setShard(s.cfg.ShardStart, s.cfg.ShardEnd)
	heavy := inFlightLimiter(s.cfg.MaxInFlight, s.metrics)
	lim := Limits{
		SNPs: g.SNPs, MaxRegionSNPs: s.cfg.MaxRegionSNPs, MaxTopK: s.cfg.MaxTopK,
		Sparse: s.sparse != nil,
	}
	mux := NewMux(lim, s.metrics.Metrics, s.execute, heavy)
	// Probes are registered on the bare mux, never behind the in-flight
	// limiter: a saturated server sheds work but keeps answering its
	// liveness and readiness checks, so load never reads as death.
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /api/info", s.handleInfo)
	s.handler = withDeadline(s.cfg.RequestTimeout, Observe(s.metrics.Metrics, s.cfg.AccessLog, mux))
	s.ready.Store(true)
	return s
}

// sharded reports whether this server owns only a row strip.
func (s *Server) sharded() bool { return s.cfg.ShardEnd > 0 }

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		httpError(w, http.StatusServiceUnavailable, "loading")
		return
	}
	writeJSON(w, map[string]any{
		"status": "ready", "snps": s.g.SNPs,
		"store_loaded": s.store != nil, "sparse_loaded": s.sparse != nil,
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// VarsHandler exposes the /debug/vars metric surface for mounting on a
// separate admin listener.
func (s *Server) VarsHandler() http.Handler { return http.HandlerFunc(s.metrics.ServeVars) }

// blisConfig is the per-request kernel configuration: the host's one
// blocking at the server's thread count, with the request context flowing
// into the parallel driver so an abandoned or timed-out request stops the
// GEMM at its next phase boundary. Requests served concurrently share
// packing storage through the blis arena pool, so the hot
// region/prune/blocks endpoints do not reallocate pack buffers.
func (s *Server) blisConfig(ctx context.Context) blis.Config {
	return blis.Config{Threads: s.cfg.Threads, Ctx: ctx}
}

// ldOptions is the per-request core configuration shared by the heavy
// handlers: the server's kernel config bound to the request context.
func (s *Server) ldOptions(ctx context.Context) core.Options {
	return core.Options{Blis: s.blisConfig(ctx)}
}

// statusClientClosedRequest is nginx's convention for "the client went
// away before we finished"; the response is never delivered, but the
// status keeps logs and metrics honest.
const statusClientClosedRequest = 499

// computeError answers a failed LD computation: requests abandoned by the
// client map to 499, deadline hits to 504 Gateway Timeout, anything else
// — parameters were already validated — is an internal error (500).
func (s *Server) computeError(err error) *Response {
	switch {
	case errors.Is(err, context.Canceled):
		s.metrics.cancelled.Add(1)
		return Errorf(statusClientClosedRequest, "request cancelled: %v", err)
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.timedOut.Add(1)
		return Errorf(http.StatusGatewayTimeout, "deadline exceeded: %v", err)
	default:
		return Errorf(http.StatusInternalServerError, "%v", err)
	}
}

// InfoResponse is the /api/info payload.
type InfoResponse struct {
	SNPs          int     `json:"snps"`
	Samples       int     `json:"samples"`
	MeanFrequency float64 `json:"mean_derived_frequency"`
	Polymorphic   int     `json:"polymorphic_snps"`
	// Fingerprint identifies the loaded dataset (the same FNV-1a hash the
	// tile store binds to). Cluster coordinators use it to verify that
	// every replica of a shard serves identical bytes and to key the
	// result cache: responses are immutable for a fixed fingerprint.
	Fingerprint string `json:"fingerprint"`
	// StoreLoaded reports whether a fingerprint-matched tile store backs
	// the LD endpoints; StoreStat names the statistic its tile maxima and
	// top lists rank by when loaded (r2; it serves every measure).
	StoreLoaded bool   `json:"store_loaded"`
	StoreStat   string `json:"store_stat,omitempty"`
	// Sparse summarizes the loaded sparse store (statistic, threshold,
	// band, nnz) when the /api/sparse endpoints are live.
	Sparse *SparseInfo `json:"sparse,omitempty"`
	// Shard advertises the owned row range when this server is a cluster
	// shard; the coordinator assembles its partition map from it.
	Shard *ShardRange `json:"shard,omitempty"`
}

// ShardRange is the half-open SNP row range a cluster shard owns.
type ShardRange struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	resp := InfoResponse{
		SNPs: s.g.SNPs, Samples: s.g.Samples,
		MeanFrequency: stats.Mean(s.freqs), Polymorphic: s.poly,
		Fingerprint: s.fingerprint,
	}
	if s.store != nil {
		resp.StoreLoaded = true
		resp.StoreStat = s.store.Stat().String()
	}
	if s.sparse != nil {
		resp.Sparse = sparseInfo(s.sparse)
	}
	if s.sharded() {
		resp.Shard = &ShardRange{Start: s.cfg.ShardStart, End: s.cfg.ShardEnd}
	}
	writeJSON(w, resp)
}

// execute is the node's Executor: narrow the query's row window to the
// rows this node owns, run the query over them, encode — a float payload
// raw when the request asked for it.
func (s *Server) execute(ctx context.Context, d *Definition, q Query, raw bool) *Response {
	rows, explicit := q.Rows()
	if s.sharded() && !d.AnyShard {
		// A shard answers only for the rows it owns. By default that is
		// its part of the query's window; a window the client (the
		// coordinator) spelled must already lie inside the strip. Anything
		// else is 421: the coordinator's partition map disagrees with this
		// shard's config, which must surface as an error rather than
		// silently double-serving.
		own := Window{Lo: s.cfg.ShardStart, Hi: s.cfg.ShardEnd}
		asked := rows
		if !explicit {
			rows = rows.Intersect(own)
		}
		if rows.Lo >= rows.Hi || rows.Lo < own.Lo || rows.Hi > own.Hi {
			return Errorf(http.StatusMisdirectedRequest,
				"shard owns rows [%d,%d); rows [%d,%d) is outside it", own.Lo, own.Hi, asked.Lo, asked.Hi)
		}
	}
	var v any
	var floats []float64 // the pooled floats v holds, released once v is spelled
	var err error
	switch q := q.(type) {
	case FreqQuery:
		v = FreqResponse{SNP: q.I, Frequency: s.freqs[q.I], Count: s.g.DerivedCount(q.I)}
	case PairQuery:
		v = s.pair(q)
	case RegionQuery:
		var r flatRegion
		r, err = s.region(ctx, q, rows)
		v, floats = r, r.vals
	case TopQuery:
		v, err = s.top(ctx, q, rows)
	case SparseQuery:
		v, floats, err = s.sparseOp(ctx, q, rows)
	case PruneQuery:
		v, err = s.prune(ctx, q)
	case BlocksQuery:
		v, err = s.blocks(ctx, q)
	case OmegaQuery:
		v, err = s.omega(ctx, q)
	}
	if err != nil {
		// Parameters were validated by the definition: what fails here is
		// the computation, which computeError classifies.
		return s.computeError(err)
	}
	var resp *Response
	if p, ok := v.(FloatPayload); ok && raw {
		resp = okRaw(p)
	} else {
		resp = OK(v)
	}
	bufpool.Floats.Put(floats)
	return resp
}

// storeOr is the one place a query meets the tile store: when the store
// is usable for it, read the answer from tiles and count it served; on any
// store error count a fallback and compute on the fly instead. The
// builder forces the Exact epilogue, so both routes yield the same bits.
func storeOr[T any](s *Server, usable bool, read, compute func() (T, error)) (T, error) {
	if usable {
		if v, err := read(); err == nil {
			s.metrics.storeServed.Add(1)
			return v, nil
		}
		s.metrics.storeFallbacks.Add(1)
	}
	return compute()
}

// FreqResponse is the /api/freq payload.
type FreqResponse struct {
	SNP       int     `json:"snp"`
	Frequency float64 `json:"derived_frequency"`
	Count     int     `json:"derived_count"`
}

// PairResponse is the /api/ld payload.
type PairResponse struct {
	I      int     `json:"i"`
	J      int     `json:"j"`
	PAB    float64 `json:"p_ab"`
	PA     float64 `json:"p_a"`
	PB     float64 `json:"p_b"`
	D      float64 `json:"d"`
	R2     float64 `json:"r2"`
	DPrime float64 `json:"d_prime"`
	Chi2   float64 `json:"chi2"`
	PValue float64 `json:"p_value"`
}

// pairResponse assembles the payload for pair p = (i, j), testing linkage
// equilibrium with χ² = Nseq·r2 (1 df) for the r² value the caller ranks
// or reports the pair by.
func (s *Server) pairResponse(i, j int, p core.Pair, r2 float64) PairResponse {
	chi2 := float64(s.g.Samples) * r2
	pv, err := stats.ChiSquarePValue(chi2, 1)
	if err != nil {
		pv = 0 // deep tail beyond float precision
	}
	return PairResponse{
		I: i, J: j, PAB: p.PAB, PA: p.PA, PB: p.PB,
		D: p.D, R2: p.R2, DPrime: p.DPrime, Chi2: chi2, PValue: pv,
	}
}

func (s *Server) pair(q PairQuery) PairResponse {
	p := core.PairLD(s.g, q.I, q.J)
	// With a tile store loaded, the stored counts are authoritative: D, r²
	// and D′ are converted from them, so /api/ld answers are bit-identical
	// to the corresponding /api/ld/region cells of every measure.
	if s.store != nil {
		p, _ = storeOr(s, true, func() (core.Pair, error) {
			st := p
			var err error
			st.D, st.R2, st.DPrime, err = s.store.Pair(q.I, q.J)
			return st, err
		}, func() (core.Pair, error) { return p, nil })
	}
	return s.pairResponse(q.I, q.J, p, p.R2)
}

// region answers rows of a region query as one row-major matrix, taken
// from bufpool.Floats by whichever executor filled it.
func (s *Server) region(ctx context.Context, q RegionQuery, rows Window) (flatRegion, error) {
	meas := q.measure()
	opt := s.ldOptions(ctx)
	opt.Measures = meas
	cols := s.g.Slice(q.Start, q.End)
	// The executors for a rectangular strip: rows [Lo, Hi) against every
	// region column, from store tiles or the GEMM. Per-cell values are a
	// pure function of pair counts and the two SNP frequencies, so a strip
	// is bit-identical to the same rows of the square below, and a store
	// converts its counts to the same bits in any measure.
	compute := func() (*core.Result, error) { return core.Cross(s.g.Slice(rows.Lo, rows.Hi), cols, opt) }
	if rows == (Window{Lo: q.Start, Hi: q.End}) {
		// A window covering every region row is the plain square: SYRK.
		compute = func() (*core.Result, error) { return core.Matrix(cols, opt) }
	}
	flat, err := storeOr(s, s.store != nil,
		func() ([]float64, error) { return s.store.Rect(meas, rows.Lo, rows.Hi, q.Start, q.End) },
		func() ([]float64, error) {
			res, err := compute()
			if err != nil {
				return nil, err
			}
			switch meas {
			case core.MeasureR2:
				return res.R2, nil
			case core.MeasureD:
				return res.D, nil
			default:
				return res.DPrime, nil
			}
		})
	if err != nil {
		return flatRegion{}, err
	}
	return flatRegion{RegionResponse: q.Response(rows), vals: flat}, nil
}

// top ranks the pairs whose smaller index lies in rows — the cluster
// ownership rule, which partitions the pair set disjointly across shards.
func (s *Server) top(ctx context.Context, q TopQuery, rows Window) (TopResponse, error) {
	// A tile store already knows the strongest pairs (per-tile r² maxima
	// prune the scan), so the whole-matrix significance stream — the most
	// expensive query the server owns — is skipped. Per-pair details are
	// recomputed from the two SNP vectors, which involves no kernel driver.
	pairs, err := storeOr(s, s.store != nil,
		func() (pairs []PairResponse, err error) {
			top, err := s.store.TopRange(q.K, rows.Lo, rows.Hi)
			for _, t := range top {
				p := core.PairLD(s.g, t.I, t.J)
				p.R2 = t.Value
				pairs = append(pairs, s.pairResponse(t.I, t.J, p, p.R2))
			}
			return pairs, err
		},
		func() (pairs []PairResponse, err error) {
			res, err := core.Significance(s.g, core.SignificanceOptions{
				Alpha: 0.999999, AlphaIsPerTest: true, MaxResults: q.K,
				RowStart: rows.Lo, RowEnd: rows.Hi, LD: s.ldOptions(ctx),
			})
			if err != nil {
				return nil, err
			}
			for _, sp := range res.Pairs {
				pairs = append(pairs, s.pairResponse(sp.I, sp.J, core.PairLD(s.g, sp.I, sp.J), sp.R2))
			}
			return pairs, nil
		})
	return TopResponse{K: q.K, Pairs: pairs}, err
}

// PruneResponse is the /api/prune payload.
type PruneResponse struct {
	Kept    []int `json:"kept"`
	Removed []int `json:"removed"`
}

func (s *Server) prune(ctx context.Context, q PruneQuery) (PruneResponse, error) {
	res, err := core.Prune(s.g, core.PruneOptions{
		WindowSNPs: q.Window, StepSNPs: q.Step, R2Threshold: q.R2,
		LD: s.ldOptions(ctx),
	})
	if err != nil {
		return PruneResponse{}, err
	}
	return PruneResponse{Kept: res.Kept, Removed: res.Removed}, nil
}

// BlocksResponse is the /api/blocks payload.
type BlocksResponse struct {
	Blocks []core.Block `json:"blocks"`
}

func (s *Server) blocks(ctx context.Context, q BlocksQuery) (BlocksResponse, error) {
	blocks, err := core.Blocks(s.g, core.BlockOptions{
		DPrimeThreshold: q.DPrime, MinStrongFrac: q.Frac,
		LD: s.ldOptions(ctx),
	})
	return BlocksResponse{Blocks: blocks}, err
}

// OmegaResponse is the /api/omega payload. Peak is the grid point with
// the highest ω, seeded from the first point so an all-zero scan still
// reports a real grid position; it is omitted when there are no points.
type OmegaResponse struct {
	Points []omega.Point `json:"points"`
	Peak   *omega.Point  `json:"peak,omitempty"`
}

func (s *Server) omega(ctx context.Context, q OmegaQuery) (OmegaResponse, error) {
	points, err := omega.Scan(s.g, omega.Config{
		GridPoints: q.Grid, MinEach: q.MinEach, MaxEach: q.MaxEach,
		LD: s.ldOptions(ctx),
	})
	if err != nil {
		return OmegaResponse{}, err
	}
	resp := OmegaResponse{Points: points}
	if len(points) > 0 {
		// Seed from the first point: an all-nonpositive scan used to
		// report a bogus zero-value peak at position 0.
		peak := points[0]
		for _, p := range points[1:] {
			if p.Omega > peak.Omega {
				peak = p
			}
		}
		resp.Peak = &peak
	}
	return resp, nil
}
