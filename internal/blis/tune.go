package blis

import (
	"context"
	"fmt"
	"time"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/kernel"
	"ldgemm/internal/popcount"
)

// The paper notes (Section IV) that "no attempt was made to tune the
// parameters within BLIS to obtain an optimized LD kernel" — the default
// dgemm-oriented blocking already lands in the 84–90% band. Tune supplies
// the missing step: an empirical search on a probe problem shaped like
// the caller's workload, jointly over micro-kernel shape × popcount
// strategy (the two interact: the batched strategies shift work from the
// register tile to the slice engine), then cache blocking, and
// thread/chunk parallelism. The winner can be persisted as a per-host
// profile (profile.go) so serving binaries skip the search at startup.

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

// TuneProbe records one measured configuration: which variant ran and
// how fast. The log answers "what did the tuner actually try" — without
// it a surprising winner is indistinguishable from a search bug.
type TuneProbe struct {
	// Kernel is the micro-kernel shape name; Variant the full kernel
	// variant measured (shape plus panel layout, e.g. "4x4-runs");
	// Popcount the concrete AND-count engine.
	Kernel   string
	Variant  string
	Popcount string
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
	// Variant and Popcount name the winner's kernel variant and concrete
	// AND-count engine, as they will appear in DriverStats.
	Variant  string
	Popcount string
	// TriplesPerSecond is the probe throughput of the winner.
	TriplesPerSecond float64
	// Evaluated is the number of configurations measured.
	Evaluated int
	// Probes is the full measurement log, one entry per evaluation.
	Probes []TuneProbe
}

// tuneStrategies returns the distinct concrete strategies worth probing
// on this host: vector and CSA coincide when no SIMD tier exists.
func tuneStrategies() []PopcountStrategy {
	if popcount.HasVector() {
		return []PopcountStrategy{PopcountScalar, PopcountCSA, PopcountVector}
	}
	return []PopcountStrategy{PopcountScalar, PopcountCSA}
}

// Tune searches kernel variants and cache block sizes for the fastest
// symmetric rank-k update on a probe matrix of the given shape. The probe
// is capped so tuning stays cheap even for huge target shapes.
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
	triples := float64(probeN) * float64(probeN+1) / 2 * float64(g.Words)
	// names reports what the driver runs for cfg on the probe, in
	// DriverStats terms.
	names := func(cfg Config) (k kernel.Kernel, variant, engine string) {
		k = cfg.PlainKernel()
		strat := plainEngine(k, cfg.Popcount, g.Words)
		return k, variantName(k, strat), strategyTag(strat)
	}
	record := func(cfg Config, phase string, rate float64) {
		k, variant, engine := names(cfg)
		res.Evaluated++
		res.Probes = append(res.Probes, TuneProbe{
			Kernel:   k.Name,
			Variant:  variant,
			Popcount: engine,
			Phase:    phase,
			MC:       cfg.MC, NC: cfg.NC, KC: cfg.KC,
			Threads: cfg.Threads, ChunkTiles: cfg.ChunkTiles,
			TriplesPerSecond: rate,
		})
	}
	measure := func(cfg Config, threads int, phase string) (float64, error) {
		if err := ctxErr(opt.Ctx); err != nil {
			return 0, err
		}
		cfg.Threads = threads
		cfg.Ctx = opt.Ctx
		clear(c)
		start := time.Now()
		if err := Syrk(cfg, g, c, probeN, false); err != nil {
			return 0, err
		}
		rate := triples / time.Since(start).Seconds()
		record(cfg, phase, rate)
		return rate, nil
	}

	// The baseline is the host default as the driver runs it: the vector
	// tile where there is one, the scalar Go kernel elsewhere.
	best := DefaultConfig()
	best.Popcount = PopcountScalar
	if best.Kernel.Lanes > 1 {
		best.Popcount = PopcountVector
	}
	baseline := best
	bestRate, err := measure(best, opt.Threads, "baseline")
	if err != nil {
		return nil, err
	}

	// Phase 1: joint micro-kernel shape × popcount strategy. The two are
	// searched together because the best shape under the scalar kernel
	// (accumulator pressure) need not be the best under the batched
	// family (slice-call amortization).
	for _, strat := range tuneStrategies() {
		for _, k := range kernel.Fixed {
			if strat == baseline.Popcount && k.Name == baseline.Kernel.Name {
				continue // the baseline already measured it
			}
			if time.Now().After(deadline) {
				break
			}
			cfg := best
			cfg.Kernel = k
			cfg.Popcount = strat
			rate, err := measure(cfg, opt.Threads, "kernel-variant")
			if err != nil {
				return nil, err
			}
			if rate > bestRate {
				best, bestRate = cfg, rate
			}
		}
	}

	// Phase 2: greedy coordinate descent over the block sizes. An exhausted
	// budget aborts the whole descent, not just the current axis.
	axes := []struct {
		name   string
		values []int
		set    func(*Config, int)
	}{
		{"KC", []int{64, 128, 256, 512, 1024}, func(c *Config, v int) { c.KC = v }},
		{"MC", []int{32, 64, 128, 256, 512}, func(c *Config, v int) { c.MC = v }},
		{"NC", []int{512, 1024, 2048, 4096, 8192}, func(c *Config, v int) { c.NC = v }},
	}
descent:
	for _, axis := range axes {
		for _, v := range axis.values {
			if time.Now().After(deadline) {
				break descent
			}
			cfg := best
			axis.set(&cfg, v)
			rate, err := measure(cfg, opt.Threads, "blocking-"+axis.name)
			if err != nil {
				return nil, err
			}
			if rate > bestRate {
				best, bestRate = cfg, rate
			}
		}
	}

	best.Threads = 0 // leave thread choice to the caller
	// Phase 3 (MaxThreads > 0): search thread counts and work-queue chunk
	// granularity against the single-core winner. Pins Threads/ChunkTiles
	// only when a parallel config beats it.
	if opt.MaxThreads > 1 {
		var grid []int
		for t := 2; t < opt.MaxThreads; t *= 2 {
			grid = append(grid, t)
		}
		grid = append(grid, opt.MaxThreads)
	threaded:
		for _, threads := range grid {
			for _, chunk := range []int{0, 8, 32, 128} {
				if time.Now().After(deadline) {
					break threaded
				}
				cfg := best
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
	_, res.Variant, res.Popcount = names(best)

	if opt.ProfilePath != "" {
		p := Profile{
			Kernel:           best.Kernel.Name,
			Popcount:         best.Popcount.String(),
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
