package cluster

import (
	"expvar"

	"ldgemm/internal/server"
)

// shardMetrics is the resilience ledger of one shard, published under the
// shards map on /debug/vars:
//
//	requests       HTTP round trips attempted (hedges included)
//	failures       attempts lost to transport errors or 5xx
//	retries        backoff re-attempts after a failed attempt
//	hedges         duplicate requests launched for slow primaries
//	hedge_wins     hedges that answered before their primary
//	fast_fails     calls refused locally while the breaker was open
//	breaker_trips  closed/half-open → open transitions
//	breaker_state  current circuit state
type shardMetrics struct {
	requests  expvar.Int
	failures  expvar.Int
	retries   expvar.Int
	hedges    expvar.Int
	hedgeWins expvar.Int
	fastFails expvar.Int
}

// metrics is the coordinator's ops surface: the request accounting every
// tier shares (server.Metrics) plus the scatter-gather counters.
type metrics struct {
	*server.Metrics
	partials  expvar.Int // scatter-gathers answered with partial: true
	proxied   expvar.Int // ownerless requests forwarded to a single replica
	coalesced expvar.Int // requests that shared another caller's in-flight fan-out
}

// newMetrics builds the metric tree over the coordinator's replica
// groups: one entry per replica (keyed by URL, flat, so dashboards see
// every backend) under "shards", plus the result-cache and coalescing
// counters on the root.
func newMetrics(coord *Coordinator) *metrics {
	m := &metrics{Metrics: server.NewMetrics()}
	m.Root.Set("partial_responses", &m.partials)
	m.Root.Set("proxied", &m.proxied)
	m.Root.Set("coalesced_requests", &m.coalesced)
	cacheVar := func(pick func(cacheStats) int64) expvar.Func {
		return func() any {
			if coord.cache == nil {
				return int64(0)
			}
			return pick(coord.cache.stats())
		}
	}
	m.Root.Set("result_cache_hits", cacheVar(func(s cacheStats) int64 { return s.Hits }))
	m.Root.Set("result_cache_misses", cacheVar(func(s cacheStats) int64 { return s.Misses }))
	m.Root.Set("result_cache_bytes", cacheVar(func(s cacheStats) int64 { return s.Bytes }))
	m.Root.Set("result_cache_entries", cacheVar(func(s cacheStats) int64 { return s.Entries }))
	m.Root.Set("result_cache_evictions", cacheVar(func(s cacheStats) int64 { return s.Evictions }))
	m.Root.Set("result_cache_rejected", cacheVar(func(s cacheStats) int64 { return s.Rejected }))
	shards := new(expvar.Map).Init()
	for gi, g := range coord.groups {
		for _, rep := range g.replicas {
			sm := rep.m
			sv := new(expvar.Map).Init()
			sv.Set("strip", expvar.Func(func() any { return gi }))
			sv.Set("requests", &sm.requests)
			sv.Set("failures", &sm.failures)
			sv.Set("retries", &sm.retries)
			sv.Set("hedges", &sm.hedges)
			sv.Set("hedge_wins", &sm.hedgeWins)
			sv.Set("fast_fails", &sm.fastFails)
			breaker := rep.breaker
			sv.Set("breaker_trips", expvar.Func(func() any {
				_, trips := breaker.snapshot()
				return trips
			}))
			sv.Set("breaker_state", expvar.Func(func() any {
				state, _ := breaker.snapshot()
				return state.String()
			}))
			shards.Set(rep.base, sv)
		}
	}
	m.Root.Set("shards", shards)
	return m
}
