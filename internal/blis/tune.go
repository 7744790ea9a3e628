package blis

import (
	"context"
	"fmt"
	"time"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/kernel"
)

// The paper notes (Section IV) that "no attempt was made to tune the
// parameters within BLIS to obtain an optimized LD kernel" — the default
// dgemm-oriented blocking already lands in the 84–90% band. Tune supplies
// the missing step: an empirical search on a probe problem shaped like
// the caller's workload over cache blocking and then thread/chunk
// parallelism. The micro-kernel is not searched: like BLIS's one kernel
// per architecture, it is what the host and k decide (dispatch.go). The
// winner can be persisted as a per-host profile (profile.go) so serving
// binaries skip the search at startup.

// TuneOptions bounds the auto-tuning search.
type TuneOptions struct {
	// SNPs and Samples describe the workload shape the tuned config will
	// be used for (defaults 2048 × 8192).
	SNPs, Samples int
	// Budget caps total measurement time (default 2s). The search is
	// greedy coordinate descent, so it degrades gracefully when the
	// budget runs out.
	Budget time.Duration
	// Threads for the probe runs (default 1: tuning targets the
	// per-core kernel, as the paper's peak analysis does).
	Threads int
	// MaxThreads enables the multi-threaded phase: after the single-core
	// descent, thread counts up to MaxThreads and work-queue chunk sizes
	// are searched against the block-size winner. 0 skips the phase and
	// the returned config leaves Threads unpinned.
	MaxThreads int
	// ProfilePath, when non-empty, persists the winner there as a
	// host-fingerprinted JSON profile (SaveProfile) after the search.
	ProfilePath string
	// Ctx, when non-nil, aborts the search: probe runs are cancelled
	// in-flight (through Config.Ctx) and Tune returns Ctx.Err().
	Ctx context.Context
}

func (o TuneOptions) normalize() TuneOptions {
	if o.SNPs == 0 {
		o.SNPs = 2048
	}
	if o.Samples == 0 {
		o.Samples = 8192
	}
	if o.Budget == 0 {
		o.Budget = 2 * time.Second
	}
	if o.Threads == 0 {
		o.Threads = 1
	}
	return o
}

// TuneProbe records one measured configuration and how fast it ran. The
// log answers "what did the tuner actually try" — without it a surprising
// winner is indistinguishable from a search bug.
type TuneProbe struct {
	// Phase names the search phase that issued the probe.
	Phase            string
	MC, NC, KC       int
	Threads          int
	ChunkTiles       int
	TriplesPerSecond float64
}

// TuneResult reports the winning configuration and its measured rate.
type TuneResult struct {
	Config Config
	// Variant and Popcount name the kernel variant and concrete AND-count
	// engine every probe ran, as they appear in DriverStats: the host's
	// route at the probe's k, which no probe changes.
	Variant  string
	Popcount string
	// TriplesPerSecond is the probe throughput of the winner.
	TriplesPerSecond float64
	// Evaluated is the number of configurations measured.
	Evaluated int
	// Probes is the full measurement log, one entry per evaluation.
	Probes []TuneProbe
}

// Tune searches cache block sizes (and, with MaxThreads, threads × chunk
// size) for the fastest symmetric rank-k update on a probe matrix of the
// given shape. The probe is capped so tuning stays cheap even for huge
// target shapes.
func Tune(opt TuneOptions) (*TuneResult, error) {
	opt = opt.normalize()
	if opt.SNPs < 1 || opt.Samples < 1 || opt.Budget <= 0 || opt.Threads < 1 || opt.MaxThreads < 0 {
		return nil, fmt.Errorf("blis: invalid tune options %+v", opt)
	}
	probeN := min(opt.SNPs, 768)
	probeK := min(opt.Samples, 16384)
	g := probeMatrix(probeN, probeK)
	c := make([]uint32, probeN*probeN)
	deadline := time.Now().Add(opt.Budget)

	res := &TuneResult{}
	_, res.Variant, res.Popcount = plainRoute(kernel.Default, g.Words)
	triples := float64(probeN) * float64(probeN+1) / 2 * float64(g.Words)
	run := func(cfg Config, threads int) error {
		cfg.Threads = threads
		cfg.Ctx = opt.Ctx
		clear(c)
		return Syrk(cfg, g, c, probeN, false)
	}
	measure := func(cfg Config, threads int, phase string) (float64, error) {
		if err := ctxErr(opt.Ctx); err != nil {
			return 0, err
		}
		start := time.Now()
		if err := run(cfg, threads); err != nil {
			return 0, err
		}
		rate := triples / time.Since(start).Seconds()
		res.Evaluated++
		res.Probes = append(res.Probes, TuneProbe{
			Phase: phase,
			MC:    cfg.MC, NC: cfg.NC, KC: cfg.KC,
			Threads: threads, ChunkTiles: cfg.ChunkTiles,
			TriplesPerSecond: rate,
		})
		return rate, nil
	}

	// The baseline is the host default as the driver runs it. One untimed
	// call first: the first driver call of a process pays arena allocation
	// and cold caches, which would otherwise be charged to the baseline and
	// hand the first probe that re-measures it a phantom win.
	best := DefaultConfig()
	if err := run(best, opt.Threads); err != nil {
		return nil, err
	}
	bestRate, err := measure(best, opt.Threads, "baseline")
	if err != nil {
		return nil, err
	}

	// Greedy coordinate descent over the block sizes. Each axis skips the
	// value it starts from — that config is already measured — so no
	// configuration is timed twice. An exhausted budget aborts the whole
	// descent, not just the current axis.
	axes := []struct {
		name   string
		values []int
		field  func(*Config) *int
	}{
		{"KC", []int{64, 128, 256, 512, 1024}, func(c *Config) *int { return &c.KC }},
		{"MC", []int{32, 64, 128, 256, 512}, func(c *Config) *int { return &c.MC }},
		{"NC", []int{512, 1024, 2048, 4096, 8192}, func(c *Config) *int { return &c.NC }},
	}
descent:
	for _, axis := range axes {
		from := *axis.field(&best)
		for _, v := range axis.values {
			if v == from {
				continue
			}
			if time.Now().After(deadline) {
				break descent
			}
			cfg := best
			*axis.field(&cfg) = v
			rate, err := measure(cfg, opt.Threads, "blocking-"+axis.name)
			if err != nil {
				return nil, err
			}
			if rate > bestRate {
				best, bestRate = cfg, rate
			}
		}
	}

	// MaxThreads > 1: search thread counts and work-queue chunk granularity
	// against the single-core winner. Pins Threads/ChunkTiles only when a
	// parallel config beats it.
	if opt.MaxThreads > 1 {
		var grid []int
		for t := 2; t < opt.MaxThreads; t *= 2 {
			grid = append(grid, t)
		}
		grid = append(grid, opt.MaxThreads)
		from := best
	threaded:
		for _, threads := range grid {
			for _, chunk := range []int{0, 8, 32, 128} {
				if threads == opt.Threads && chunk == from.ChunkTiles {
					continue // the descent's winner, already measured
				}
				if time.Now().After(deadline) {
					break threaded
				}
				cfg := from
				cfg.ChunkTiles = chunk
				rate, err := measure(cfg, threads, "threads")
				if err != nil {
					return nil, err
				}
				if rate > bestRate {
					cfg.Threads = threads
					best, bestRate = cfg, rate
				}
			}
		}
	}
	res.Config = best
	res.TriplesPerSecond = bestRate

	if opt.ProfilePath != "" {
		p := Profile{
			MC:               best.MC,
			NC:               best.NC,
			KC:               best.KC,
			Threads:          best.Threads,
			ChunkTiles:       best.ChunkTiles,
			TriplesPerSecond: bestRate,
		}
		if err := SaveProfile(opt.ProfilePath, p); err != nil {
			return nil, fmt.Errorf("blis: saving tune profile: %w", err)
		}
	}
	return res, nil
}

// probeMatrix builds a deterministic dense probe input.
func probeMatrix(snps, samples int) *bitmat.Matrix {
	m := bitmat.New(snps, samples)
	state := uint64(0x2545f4914f6cdd1d)
	pad := m.PadMask()
	for i := 0; i < snps; i++ {
		w := m.SNP(i)
		for j := range w {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			w[j] = state
		}
		if len(w) > 0 {
			w[len(w)-1] &= pad
		}
	}
	return m
}
