package ldstore

import "sync/atomic"

// Package-wide serving instrumentation, mirroring the blis driver
// counters: the HTTP surface needs to answer "how often does a query meet
// a tile it has not checked yet" and "how much store traffic are we
// serving" without per-call plumbing, so every Store feeds the cumulative
// atomic counters of its kind, which any observer (/debug/vars, a
// benchmark harness) snapshots with ReadStats or ReadPrunedStats and
// differences over time.
type counters struct {
	tilesRead, bytesRead, cacheHits, cacheMisses, evictions   atomic.Uint64 // fed by Store.fetch
	bytesServed, matVecs, matVecNanos, scores, entriesVisited atomic.Uint64 // see Stats
}

// stats holds one counters block per kind: complete stores', then pruned.
var stats [2]counters

// Stats is a snapshot of one kind's cumulative store counters. A store
// reads its tiles in place and checks each on its first touch: CacheMisses
// counts first touches, TilesRead those whose check passed and BytesRead
// their payload bytes, and CacheHits the touches of a tile already
// checked. Evictions stays 0: nothing is cached to evict (the field keeps
// the /debug/vars key). BytesServed is the size of the values delivered
// to queries (8 bytes a value), the store's service throughput. Pruned
// stores only: MatVecs counts R·v evaluations (Score calls included — a
// score is a matvec of the squared z vector, and Scores counts those
// separately), MatVecNanos their total wall time, and EntriesVisited the
// stored entries folded into outputs — nnz per full matvec, with
// symmetric off-diagonal entries counted once.
type Stats struct {
	TilesRead, BytesRead                         uint64
	CacheHits, CacheMisses, Evictions            uint64
	BytesServed                                  uint64
	MatVecs, MatVecNanos, Scores, EntriesVisited uint64
}

// HitRate returns the fraction of tile touches that met a checked tile,
// or 0 before the first touch.
func (s Stats) HitRate() float64 {
	if total := s.CacheHits + s.CacheMisses; total > 0 {
		return float64(s.CacheHits) / float64(total)
	}
	return 0
}

// ReadStats snapshots the complete stores' counters, and ReadPrunedStats
// the pruned stores'. Counters only grow; observers difference successive
// snapshots for rates.
func ReadStats() Stats       { return stats[0].read() }
func ReadPrunedStats() Stats { return stats[1].read() }

func (c *counters) read() Stats {
	return Stats{
		TilesRead:      c.tilesRead.Load(),
		BytesRead:      c.bytesRead.Load(),
		CacheHits:      c.cacheHits.Load(),
		CacheMisses:    c.cacheMisses.Load(),
		Evictions:      c.evictions.Load(),
		BytesServed:    c.bytesServed.Load(),
		MatVecs:        c.matVecs.Load(),
		MatVecNanos:    c.matVecNanos.Load(),
		Scores:         c.scores.Load(),
		EntriesVisited: c.entriesVisited.Load(),
	}
}
