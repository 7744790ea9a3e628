package server

import (
	"expvar"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"ldgemm/internal/blis"
	"ldgemm/internal/ldsparse"
	"ldgemm/internal/ldstore"
)

// Metrics is the request accounting every tier publishes on /debug/vars,
// and the root its tier-specific counters hang from. The vars live in a
// private map rather than the process-global expvar registry, so many
// servers and coordinators (tests, multi-tenant embedding) can coexist
// without duplicate-name panics.
//
//	requests        request counts by matched route; every path no
//	                route matches folds into "other", so a scanner
//	                cannot mint a permanent key per 404
//	statuses        response counts by HTTP status code
//	latency_ns      cumulative handling time by route, nanoseconds
//	uptime_seconds  seconds since construction
//	sparse_vectors_scanned, sparse_vectors_json
//	                sparse operator bodies whose vector the wire scanner
//	                read, and bodies it left to encoding/json (anything but
//	                {"x":[…]} without whitespace: several times the parse
//	                cost); process-wide, like blis, store and sparse
type Metrics struct {
	Root     *expvar.Map
	requests *expvar.Map
	statuses *expvar.Map
	latency  *expvar.Map
}

// NewMetrics builds the shared request-accounting tree.
func NewMetrics() *Metrics {
	m := &Metrics{
		Root:     new(expvar.Map).Init(),
		requests: new(expvar.Map).Init(),
		statuses: new(expvar.Map).Init(),
		latency:  new(expvar.Map).Init(),
	}
	start := time.Now()
	m.Root.Set("requests", m.requests)
	m.Root.Set("statuses", m.statuses)
	m.Root.Set("latency_ns", m.latency)
	m.Root.Set("uptime_seconds", expvar.Func(func() any {
		return time.Since(start).Seconds()
	}))
	m.Root.Set("sparse_vectors_scanned", expvar.Func(func() any { return vectorsScanned.Load() }))
	m.Root.Set("sparse_vectors_json", expvar.Func(func() any { return vectorsJSON.Load() }))
	return m
}

// vectorsScanned and vectorsJSON count where parseSparse branches.
var vectorsScanned, vectorsJSON atomic.Int64

// ServeVars writes the metric tree in expvar's JSON format.
func (m *Metrics) ServeVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintln(w, m.Root.String())
}

// metrics is a node's ops surface: the shared request accounting plus
//
//	in_flight       heavy requests currently holding a semaphore slot
//	shed            requests rejected with 503 by the in-flight cap
//	cancelled       compute requests abandoned by the client (499)
//	timed_out       compute requests that hit the deadline (504)
//	blis            cumulative kernel-driver counters: calls, cancelled,
//	                cells, nanos, kernel_gcells_per_sec (mean giga-cells
//	                of C×k work per second), kernel_variant and
//	                popcount_strategy (what the last driver call
//	                dispatched to), popcounts_avoided (POPCNT
//	                invocations the batched CSA/SIMD folds saved vs the
//	                scalar kernel), arena_gets, arena_misses,
//	                arena_hit_rate, epilogue_tiles (register tiles
//	                converted by the fused epilogue), epilogue_nanos
//	                (wall time inside the fused hook), and
//	                fused_bytes_avoided (dense count-matrix bytes the
//	                fused calls never materialized), panels_read /
//	                panel_bytes_read (out-of-core I/O panels fetched),
//	                prefetch_stall_nanos (compute time lost waiting on
//	                panel I/O), and resume_count (builder runs restarted
//	                from a checkpoint)
//	shard           owned row range {row_start, row_end} (cluster shards)
//	store_served    requests answered from the tile store
//	store_fallbacks requests that hit a store error and recomputed
//	store           cumulative tile-store counters: tiles_read, bytes_read,
//	                cache_hits, cache_misses, cache_hit_rate, evictions,
//	                bytes_served
//	sparse_served   requests answered by the sparse operators
//	sparse          cumulative sparse-store counters: tiles_read,
//	                bytes_read, cache_hits, cache_misses, cache_hit_rate,
//	                evictions, bytes_served, matvecs, matvec_nanos,
//	                scores, entries_visited
type metrics struct {
	*Metrics
	inFlight       expvar.Int
	shed           expvar.Int
	cancelled      expvar.Int
	timedOut       expvar.Int
	storeServed    expvar.Int
	storeFallbacks expvar.Int
	sparseServed   expvar.Int
	sparseResident expvar.Int // bytes of the sparse store's resident row layout
}

func newMetrics() *metrics {
	m := &metrics{Metrics: NewMetrics()}
	m.Root.Set("in_flight", &m.inFlight)
	m.Root.Set("shed", &m.shed)
	m.Root.Set("cancelled", &m.cancelled)
	m.Root.Set("timed_out", &m.timedOut)
	m.Root.Set("store_served", &m.storeServed)
	m.Root.Set("store_fallbacks", &m.storeFallbacks)
	m.Root.Set("sparse_served", &m.sparseServed)
	m.Root.Set("sparse", expvar.Func(func() any {
		s := ldsparse.ReadStats()
		return map[string]any{
			"tiles_read":      s.TilesRead,
			"bytes_read":      s.BytesRead,
			"cache_hits":      s.CacheHits,
			"cache_misses":    s.CacheMisses,
			"cache_hit_rate":  s.HitRate(),
			"evictions":       s.Evictions,
			"bytes_served":    s.BytesServed,
			"matvecs":         s.MatVecs,
			"matvec_nanos":    s.MatVecNanos,
			"scores":          s.Scores,
			"entries_visited": s.EntriesVisited,
			"resident_bytes":  m.sparseResident.Value(),
		}
	}))
	m.Root.Set("store", expvar.Func(func() any {
		s := ldstore.ReadStats()
		return map[string]any{
			"tiles_read":     s.TilesRead,
			"bytes_read":     s.BytesRead,
			"cache_hits":     s.CacheHits,
			"cache_misses":   s.CacheMisses,
			"cache_hit_rate": s.HitRate(),
			"evictions":      s.Evictions,
			"bytes_served":   s.BytesServed,
		}
	}))
	m.Root.Set("blis", expvar.Func(func() any {
		s := blis.ReadStats()
		return map[string]any{
			"calls":                 s.Calls,
			"cancelled":             s.Cancelled,
			"cells":                 s.Cells,
			"nanos":                 s.Nanos,
			"kernel_gcells_per_sec": s.CellRate() / 1e9,
			"kernel_variant":        s.Variant,
			"popcount_strategy":     s.Popcount,
			"popcounts_avoided":     s.PopcountsAvoided,
			"arena_gets":            s.ArenaGets,
			"arena_misses":          s.ArenaMisses,
			"arena_hit_rate":        s.ArenaHitRate(),
			"epilogue_tiles":        s.EpilogueTiles,
			"epilogue_nanos":        s.EpilogueNanos,
			"fused_bytes_avoided":   s.EpilogueBytesAvoided,
			"panels_read":           s.PanelsRead,
			"panel_bytes_read":      s.PanelBytesRead,
			"prefetch_stall_nanos":  s.PrefetchStallNanos,
			"resume_count":          s.Resumes,
			"band_panels_skipped":   s.BandPanelsSkipped,
			"band_cells_skipped":    s.BandCellsSkipped,
		}
	}))
	return m
}

// setShard publishes the owned row range on /debug/vars when the server
// runs as a cluster shard, so an operator reading a shard's metrics can
// tell which strip of the partition it serves.
func (m *metrics) setShard(start, end int) {
	if end <= 0 {
		return
	}
	var lo, hi expvar.Int
	lo.Set(int64(start))
	hi.Set(int64(end))
	shard := new(expvar.Map).Init()
	shard.Set("row_start", &lo)
	shard.Set("row_end", &hi)
	m.Root.Set("shard", shard)
}
