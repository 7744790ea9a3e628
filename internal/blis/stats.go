package blis

import "sync/atomic"

// Package-wide driver instrumentation. The serving path needs to answer
// "how fast is the kernel actually running" and "is the arena pool doing
// its job" without per-call plumbing, so the driver maintains cumulative
// atomic counters that any observer (the HTTP /debug/vars surface, a
// benchmark harness) can snapshot with ReadStats and difference over time.
type driverCounters struct {
	calls     atomic.Uint64
	cancelled atomic.Uint64
	cells     atomic.Uint64
	nanos     atomic.Uint64

	arenaGets   atomic.Uint64
	arenaMisses atomic.Uint64

	epiTiles        atomic.Uint64
	epiNanos        atomic.Uint64
	epiBytesAvoided atomic.Uint64

	popcAvoided atomic.Uint64
	variant     atomic.Pointer[string]
	popcount    atomic.Pointer[string]

	panelsRead         atomic.Uint64
	panelBytesRead     atomic.Uint64
	prefetchStallNanos atomic.Uint64
	resumes            atomic.Uint64

	bandPanelsSkipped atomic.Uint64
	bandCellsSkipped  atomic.Uint64
}

var stats driverCounters

// setVariant records the kernel variant and concrete popcount engine of
// the most recent driver call, for ReadStats and /debug/vars.
func (s *driverCounters) setVariant(variant, popcount string) {
	s.variant.Store(&variant)
	s.popcount.Store(&popcount)
}

// DriverStats is a snapshot of the cumulative driver counters.
type DriverStats struct {
	// Calls counts completed driver invocations (Gemm/Syrk, plain and
	// masked, and StripeEpilogue: one a stripe, however many panels it
	// streams); Cancelled counts invocations aborted by their context.
	Calls     uint64
	Cancelled uint64
	// Cells is Σ C-cells × k-words over completed calls — the paper's
	// (SNP, SNP, word) triple count, the unit of kernel work. Dividing a
	// Cells delta by the matching Nanos delta gives the giga-cell rate.
	Cells uint64
	// Nanos is the total wall time completed driver calls spent on their
	// panels; a stripe call's wait for its next panel is not in it.
	Nanos uint64
	// ArenaGets/ArenaMisses count arena-pool checkouts and the subset
	// that had to allocate fresh storage; 1 − misses/gets is the pool
	// hit rate the HTTP path relies on.
	ArenaGets   uint64
	ArenaMisses uint64
	// EpilogueTiles counts register tiles converted in place by a fused
	// epilogue (the tiles its row runs span), EpilogueNanos the wall time
	// workers spent inside the hook, and EpilogueBytesAvoided the dense
	// count-matrix bytes that fused calls never materialized (m·n·4 per
	// call). Only a caller's epilogue counts: a MaskedGemm or MaskedSyrk
	// that writes its four-count matrix adds to none of the three.
	EpilogueTiles        uint64
	EpilogueNanos        uint64
	EpilogueBytesAvoided uint64
	// PopcountsAvoided counts the single-word popcount executions the
	// vector tile (fold 8: one VPOPCNTQ per eight cells) and the batched
	// SIMD family folded away relative to the scalar kernel:
	// cells · (1 − 1/fold) per call.
	PopcountsAvoided uint64
	// PanelsRead/PanelBytesRead count the I/O panels (and their packed
	// bytes) an out-of-core scheduler fetched from a file-backed bit
	// matrix, and PrefetchStallNanos the wall time its compute loop spent
	// blocked waiting for a panel the prefetcher had not finished reading —
	// the GEMM-starved-on-I/O fraction of an out-of-core build.
	PanelsRead         uint64
	PanelBytesRead     uint64
	PrefetchStallNanos uint64
	// Resumes counts builder runs that restarted from a checkpoint
	// manifest instead of from scratch.
	Resumes uint64
	// BandPanelsSkipped/BandCellsSkipped count the far-off-diagonal
	// column panels a banded schedule never fetched and the (row, col)
	// result cells it never computed — the GEMM work a |i−j| ≤ W window
	// eliminated outright rather than computed and discarded.
	BandPanelsSkipped uint64
	BandCellsSkipped  uint64
	// Variant names the kernel variant of the most recent driver call
	// (e.g. "8x8-avx512", "4x4", "4x4-runs"; a masked call reports the
	// default kernel's route, which it runs); Popcount
	// names its concrete AND-count engine ("scalar" or "vector-<tier>",
	// e.g. "vector-avx512-vpopcntdq" — for the tile and for the per-cell
	// dot product alike; the variant tells them apart). Empty until the
	// first call.
	Variant  string
	Popcount string
}

// CellRate returns the mean throughput over the counted work in cells
// (SNP-pair-word triples) per second, or 0 when nothing has run.
func (s DriverStats) CellRate() float64 {
	if s.Nanos == 0 {
		return 0
	}
	return float64(s.Cells) / (float64(s.Nanos) * 1e-9)
}

// ArenaHitRate returns the fraction of arena checkouts served from the
// pool, or 0 before the first checkout.
func (s DriverStats) ArenaHitRate() float64 {
	if s.ArenaGets == 0 {
		return 0
	}
	return 1 - float64(s.ArenaMisses)/float64(s.ArenaGets)
}

// NotePanelRead records one I/O panel fetch of the given packed size.
// Called by the out-of-core panel scheduler, which lives above this
// package but reports through the same counter surface the driver uses.
func NotePanelRead(bytes int64) {
	stats.panelsRead.Add(1)
	stats.panelBytesRead.Add(uint64(bytes))
}

// NotePrefetchStall records wall time a compute loop spent blocked on a
// panel read the prefetcher had not yet completed.
func NotePrefetchStall(nanos int64) {
	stats.prefetchStallNanos.Add(uint64(nanos))
}

// NoteResume records a builder run restarted from a checkpoint.
func NoteResume() { stats.resumes.Add(1) }

// NoteBandSkip records far-off-diagonal work a banded schedule skipped:
// panels column panels never fetched, cells result cells never computed.
func NoteBandSkip(panels, cells int64) {
	stats.bandPanelsSkipped.Add(uint64(panels))
	stats.bandCellsSkipped.Add(uint64(cells))
}

// ReadStats snapshots the cumulative driver counters. Counters only grow;
// observers difference successive snapshots for rates.
func ReadStats() DriverStats {
	d := DriverStats{
		Calls:                stats.calls.Load(),
		Cancelled:            stats.cancelled.Load(),
		Cells:                stats.cells.Load(),
		Nanos:                stats.nanos.Load(),
		ArenaGets:            stats.arenaGets.Load(),
		ArenaMisses:          stats.arenaMisses.Load(),
		EpilogueTiles:        stats.epiTiles.Load(),
		EpilogueNanos:        stats.epiNanos.Load(),
		EpilogueBytesAvoided: stats.epiBytesAvoided.Load(),
		PopcountsAvoided:     stats.popcAvoided.Load(),
		PanelsRead:           stats.panelsRead.Load(),
		PanelBytesRead:       stats.panelBytesRead.Load(),
		PrefetchStallNanos:   stats.prefetchStallNanos.Load(),
		Resumes:              stats.resumes.Load(),
		BandPanelsSkipped:    stats.bandPanelsSkipped.Load(),
		BandCellsSkipped:     stats.bandCellsSkipped.Load(),
	}
	if p := stats.variant.Load(); p != nil {
		d.Variant = *p
	}
	if p := stats.popcount.Load(); p != nil {
		d.Popcount = *p
	}
	return d
}
