package ldstore

import (
	"sync/atomic"

	"ldgemm/internal/tilefile"
)

// Package-wide serving instrumentation, mirroring the blis driver
// counters: the HTTP surface needs to answer "is the tile cache doing its
// job" and "how much store traffic are we serving" without per-call
// plumbing, so every Store feeds cumulative atomic counters that any
// observer (/debug/vars, a benchmark harness) snapshots with ReadStats
// and differences over time.
var stats struct {
	tilefile.Counters // fed by the container's read path
	bytesServed       atomic.Uint64
}

// Stats is a snapshot of the cumulative tile-store counters.
type Stats struct {
	// TilesRead counts tiles decoded from disk (cache misses that
	// completed a load); BytesRead is their on-disk payload bytes.
	TilesRead uint64
	BytesRead uint64
	// CacheHits/CacheMisses count tile-cache lookups; Evictions counts
	// tiles dropped by the LRU to admit new ones.
	CacheHits   uint64
	CacheMisses uint64
	Evictions   uint64
	// BytesServed is the cumulative size of statistic values delivered
	// to queries (8 bytes per value), the store's service throughput.
	BytesServed uint64
}

// HitRate returns the fraction of tile lookups served from the cache, or
// 0 before the first lookup.
func (s Stats) HitRate() float64 { return tilefile.HitRate(s.CacheHits, s.CacheMisses) }

// ReadStats snapshots the cumulative store counters. Counters only grow;
// observers difference successive snapshots for rates.
func ReadStats() Stats {
	return Stats{
		TilesRead:   stats.TilesRead.Load(),
		BytesRead:   stats.BytesRead.Load(),
		CacheHits:   stats.CacheHits.Load(),
		CacheMisses: stats.CacheMisses.Load(),
		Evictions:   stats.Evictions.Load(),
		BytesServed: stats.bytesServed.Load(),
	}
}
