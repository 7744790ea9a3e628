package ldstore

import (
	"sync/atomic"

	"ldgemm/internal/tilefile"
)

// Package-wide serving instrumentation, mirroring the blis driver
// counters: the HTTP surface needs to answer "is the tile cache doing its
// job" and "how much store traffic are we serving" without per-call
// plumbing, so every Store feeds the cumulative atomic counters of its
// kind, which any observer (/debug/vars, a benchmark harness) snapshots
// with ReadStats or ReadPrunedStats and differences over time.
type counters struct {
	tilefile.Counters                                                       // fed by the container's read path
	bytesServed, matVecs, matVecNanos, scores, entriesVisited atomic.Uint64 // see Stats
}

// stats holds one counters block per kind: complete stores', then pruned.
var stats [2]counters

// Stats is a snapshot of one kind's cumulative store counters. TilesRead
// counts tiles decoded from disk (cache misses that completed a load),
// BytesRead their on-disk payload bytes; CacheHits and CacheMisses count
// tile-cache lookups, Evictions the tiles the LRU dropped to admit new
// ones; BytesServed is the size of the values delivered to queries (8
// bytes a value), the store's service throughput. Pruned stores only:
// MatVecs counts R·v evaluations (Score calls included — a score is a
// matvec of the squared z vector, and Scores counts those separately),
// MatVecNanos their total wall time, and EntriesVisited the stored entries
// folded into outputs — nnz per full matvec, with symmetric off-diagonal
// entries counted once.
type Stats struct {
	TilesRead, BytesRead                         uint64
	CacheHits, CacheMisses, Evictions            uint64
	BytesServed                                  uint64
	MatVecs, MatVecNanos, Scores, EntriesVisited uint64
}

// HitRate returns the fraction of tile lookups served from the cache, or
// 0 before the first lookup.
func (s Stats) HitRate() float64 { return tilefile.HitRate(s.CacheHits, s.CacheMisses) }

// ReadStats snapshots the complete stores' counters, and ReadPrunedStats
// the pruned stores'. Counters only grow; observers difference successive
// snapshots for rates.
func ReadStats() Stats       { return stats[0].read() }
func ReadPrunedStats() Stats { return stats[1].read() }

func (c *counters) read() Stats {
	return Stats{
		TilesRead:      c.TilesRead.Load(),
		BytesRead:      c.BytesRead.Load(),
		CacheHits:      c.CacheHits.Load(),
		CacheMisses:    c.CacheMisses.Load(),
		Evictions:      c.Evictions.Load(),
		BytesServed:    c.bytesServed.Load(),
		MatVecs:        c.matVecs.Load(),
		MatVecNanos:    c.matVecNanos.Load(),
		Scores:         c.scores.Load(),
		EntriesVisited: c.entriesVisited.Load(),
	}
}
