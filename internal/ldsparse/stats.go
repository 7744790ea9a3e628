package ldsparse

import (
	"sync/atomic"

	"ldgemm/internal/tilefile"
)

// Package-wide store instrumentation, mirroring ldstore's: cumulative
// atomic counters any observer (the /debug/vars surface, the benchmark
// harness) snapshots with ReadStats and differences over time.
var stats struct {
	tilefile.Counters // fed by the container's read path
	bytesServed       atomic.Uint64

	matVecs        atomic.Uint64
	matVecNanos    atomic.Uint64
	scores         atomic.Uint64
	entriesVisited atomic.Uint64
}

// Stats is a snapshot of the cumulative sparse-store counters.
type Stats struct {
	// TilesRead counts CSR tile payloads decoded from disk (LRU misses);
	// CacheHits/CacheMisses/Evictions describe the decoded-tile LRU.
	TilesRead   uint64
	CacheHits   uint64
	CacheMisses uint64
	Evictions   uint64
	// BytesRead is payload bytes fetched from the file; BytesServed is
	// result bytes produced for callers.
	BytesRead   uint64
	BytesServed uint64
	// MatVecs counts R·v evaluations (Score calls included — a score is
	// a matvec of the squared z vector, and Scores counts those
	// separately), MatVecNanos their total wall time, and EntriesVisited
	// the stored entries folded into outputs — nnz per full matvec, with
	// symmetric off-diagonal entries counted once.
	MatVecs        uint64
	MatVecNanos    uint64
	Scores         uint64
	EntriesVisited uint64
}

// HitRate returns the decoded-tile cache hit fraction, or 0 before the
// first lookup.
func (s Stats) HitRate() float64 { return tilefile.HitRate(s.CacheHits, s.CacheMisses) }

// ReadStats snapshots the cumulative counters. Counters only grow;
// observers difference successive snapshots for rates.
func ReadStats() Stats {
	return Stats{
		TilesRead:      stats.TilesRead.Load(),
		CacheHits:      stats.CacheHits.Load(),
		CacheMisses:    stats.CacheMisses.Load(),
		Evictions:      stats.Evictions.Load(),
		BytesRead:      stats.BytesRead.Load(),
		BytesServed:    stats.bytesServed.Load(),
		MatVecs:        stats.matVecs.Load(),
		MatVecNanos:    stats.matVecNanos.Load(),
		Scores:         stats.scores.Load(),
		EntriesVisited: stats.entriesVisited.Load(),
	}
}
