package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"ldgemm/internal/blis"
	"ldgemm/internal/ldsparse"
	"ldgemm/internal/ldstore"
)

// env is what a workload is given: the seed its inputs come from, the
// scale divisor (1 = the sizes BENCHMARK.json names), and a scratch
// directory that is removed when the run ends.
type env struct {
	seed    int64
	scale   int
	threads int // GOMAXPROCS; nothing uses more threads or connections
	tmp     string
	host    hostBlock
}

// instance is one set-up workload.
type instance interface {
	// measure warms up, then runs the workload for at least d, recording
	// spans around its calls into the layers when tr is non-nil.
	measure(d time.Duration, tr *tracer) (*measurement, error)
	// verify runs the untimed correctness gates.
	verify() (attempted, failed int, err error)
	// probe calls the workload's layers directly (the traced run only)
	// and writes their per-layer metrics. plain and traced are the two
	// measured windows of that run.
	probe(tr *tracer, plain, traced *measurement, out metrics) error
	// setupSplit says how the set-up time divides.
	setupSplit() (generateS, storeBuildS float64)
	close()
}

// metrics maps a metric name to its value.
type metrics map[string]float64

// setRatio records a/b, or nothing when the denominator is 0: the layer
// was not exercised and the metric reads "not_measured".
func (m metrics) setRatio(name string, a, b float64) {
	if b != 0 {
		m[name] = a / b
	}
}

// snapshot is every process-global counter the layers publish, read at
// one boundary. The counters are process-global, which is why the
// benchmark runs one workload and one server set at a time.
type snapshot struct {
	blis   blis.DriverStats
	store  ldstore.Stats
	sparse ldsparse.Stats
	alloc  uint64
	malloc uint64
}

func snap() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		blis: blis.ReadStats(), store: ldstore.ReadStats(), sparse: ldsparse.ReadStats(),
		alloc: ms.TotalAlloc, malloc: ms.Mallocs,
	}
}

// measurement is one timed window of a workload.
type measurement struct {
	batch          bool
	primary        []float64            // seconds per primary operation: a pass, or a region request
	byKind         map[string][]float64 // serving: seconds per request, by endpoint
	ops            int                  // operations attempted
	failed         int                  // operations that errored, were refused, or delivered a wrong count
	throughput     float64
	allocMBPerOp   float64
	mallocsPerOp   float64
	busySeconds    float64 // batch: Σ pass time; serving: the window
	driverThreads  int     // threads each driver call ran with
	before, after  snapshot
	peakFraction   float64 // batch only
	bytesPerRegion float64 // serving only
	storeQueries   int     // serving: requests the dense store could answer
	vars           map[string]float64
	speed          []float64 // host speed samples taken between the operations
}

// hostFactor is the window's median host speed over the nominal speed:
// what a time is multiplied by, and a rate divided by, to read as on the
// nominal host.
func (m *measurement) hostFactor() float64 { return median(m.speed) / nominalSpeed }

// overheadSamples are the latencies the tracing overhead is read from:
// the passes of a batch workload, the pair lookups of a serving one. A
// span costs the same around any request, so it shows most on the
// shortest, and uniform pairs never meet a warmed result cache.
func (m *measurement) overheadSamples() []float64 {
	if m.batch {
		return m.primary
	}
	return m.byKind["pair"]
}

// endToEndOf turns a window and the (already normalised) set-up time into
// the end-to-end metrics, times and rates normalised by the host's speed.
func endToEndOf(m *measurement, setupS float64) metrics {
	f := m.hostFactor()
	return metrics{
		"throughput":      m.throughput / f,
		"latency_p50_ms":  median(m.primary) * 1e3 * f,
		"alloc_mb_per_op": m.allocMBPerOp,
		"setup_s":         setupS,
	}
}

// counterMetrics derives the per-layer metrics that come from counter
// deltas over a window. They are computed where the work happened; a
// layer the workload never entered gets no value ("not_measured").
func counterMetrics(m *measurement, out metrics) {
	b0, b1 := m.before.blis, m.after.blis
	ops := float64(m.ops)
	out.setRatio("blis.epilogue_share", float64(b1.EpilogueNanos-b0.EpilogueNanos),
		float64(m.driverThreads)*float64(b1.Nanos-b0.Nanos))
	gets := float64(b1.ArenaGets - b0.ArenaGets)
	out.setRatio("blis.arena_hit_rate", gets-float64(b1.ArenaMisses-b0.ArenaMisses), gets)
	out.setRatio("blis.calls_per_op", float64(b1.Calls-b0.Calls), ops)

	s0, s1 := m.before.store, m.after.store
	lookups := float64(s1.CacheHits - s0.CacheHits + s1.CacheMisses - s0.CacheMisses)
	out.setRatio("ldstore.cache_hit_rate", float64(s1.CacheHits-s0.CacheHits), lookups)
	if lookups > 0 {
		out.setRatio("ldstore.tiles_read_per_query", float64(s1.TilesRead-s0.TilesRead), float64(m.storeQueries))
		out.setRatio("ldstore.read_amplification", float64(s1.BytesRead-s0.BytesRead), float64(s1.BytesServed-s0.BytesServed))
	}

	if m.batch {
		out["blis.peak_fraction"] = m.peakFraction
		out["core.mallocs_per_pass"] = m.mallocsPerOp
		if panels := float64(b1.PanelBytesRead - b0.PanelBytesRead); panels > 0 {
			out["bitmat.panel_bytes_per_build"] = panels / ops
			out["bitmat.stall_fraction"] = float64(b1.PrefetchStallNanos-b0.PrefetchStallNanos) / 1e9 / m.busySeconds
			out["ldsparse.band_cells_skipped"] = float64(b1.BandCellsSkipped-b0.BandCellsSkipped) / ops
		}
		return
	}
	out["server.mallocs_per_request"] = m.mallocsPerOp
	out["server.qps"] = m.throughput
	out["server.region_p99_ms"] = percentile(m.byKind["region"], 0.99) * 1e3
	for _, kind := range []string{"pair", "top", "matvec"} {
		if xs := m.byKind[kind]; len(xs) > 0 {
			out["server."+kind+"_p50_ms"] = median(xs) * 1e3
		}
	}
	out["server.bytes_per_region"] = m.bytesPerRegion
	for k, v := range m.vars {
		out[k] = v
	}
}

// report is the outcome of one workload run.
type report struct {
	Workload  string  `json:"workload"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	ErrorRate float64 `json:"error_rate"`
	Samples   int     `json:"primary_samples"`
	// HostSpeed is what the end-to-end times and rates were normalised
	// by: the median spin rate sampled inside the measured window.
	HostSpeed float64           `json:"host_speed_triples_per_s"`
	Metrics   map[string]metric `json:"metrics"`
	tracer    *tracer
}

// metric is a value with its unit. The result files write a per-layer
// metric the workload does not exercise as "not_measured"; the one-line
// result the driver reads needs a number, so there it is 0.
type metric struct {
	Value any    `json:"value"`
	Unit  string `json:"unit"`
}

// settle keeps every core busy until the scalar triple rate stops
// climbing: a host that has sat idle, or ran the single-threaded set-up
// on one core, takes a while to give its full speed back, and a window
// that starts before then measures the host, not the program.
func settle(threads int) {
	const round = 50 * time.Millisecond
	best, steady := 0.0, 0
	for start := time.Now(); steady < 3 && time.Since(start) < 4*time.Second; {
		slowest := slices.Min(spinAll(threads, round, round))
		if slowest >= 0.97*best {
			steady++
		} else {
			steady = 0
		}
		best = max(best, slowest)
	}
}

// An untraced run sets the workload up at least minSetups times and until
// setupBudget has been spent on it (at most maxSetups times), and reports
// the median: a 50 ms set-up timed three times is mostly noise.
const (
	minSetups   = 3
	maxSetups   = 12
	setupBudget = 2 * time.Second
)

// runWorkload sets the workload up, measures it for seconds, checks its
// outputs and returns the end-to-end metrics (traced false) or the
// per-layer metrics of a traced run (traced true).
func runWorkload(w *workloadSpec, e *env, seconds float64, traced bool) (*report, error) {
	var setups []float64
	var inst instance
	for spent := 0.0; ; {
		if inst != nil {
			inst.close()
		}
		if err := os.RemoveAll(e.tmp); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(e.tmp, 0o755); err != nil {
			return nil, err
		}
		runtime.GC()
		speed := sampleSpeed(e.threads)
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		took := time.Since(t0).Seconds()
		setups = append(setups, took*speed/nominalSpeed)
		spent += took
		// setup_s is an end-to-end metric; the traced run only splits one set-up.
		if traced || (len(setups) >= minSetups && (spent >= setupBudget.Seconds() || len(setups) == maxSetups)) {
			break
		}
	}
	defer inst.close()

	rep := &report{Workload: w.Name, Metrics: make(map[string]metric)}
	window := time.Duration(seconds * float64(time.Second))
	var specs []metricSpec
	var values metrics
	var windows []*measurement
	if !traced {
		settle(e.threads)
		m, err := inst.measure(window, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		windows = append(windows, m)
		specs, values = endToEnd, endToEndOf(m, median(setups))
	} else {
		// A third of the time untraced, a third traced, the rest for
		// the direct probes: the difference between the two windows is
		// the tracing overhead.
		settle(e.threads)
		plain, err := inst.measure(window/3, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		rep.tracer = newTracer(w.Name)
		tr, err := inst.measure(window/3, rep.tracer)
		if err != nil {
			return nil, fmt.Errorf("%s: traced: %w", w.Name, err)
		}
		windows = append(windows, plain, tr)
		values = make(metrics)
		counterMetrics(tr, values)
		if err := inst.probe(rep.tracer, plain, tr, values); err != nil {
			return nil, fmt.Errorf("%s: probe: %w", w.Name, err)
		}
		values["popcount.scalar_triples_per_s"] = e.host.ScalarPeak
		values["popcount.engine_triples_per_s"] = e.host.EnginePeak
		values["popcount.engine_over_scalar"] = ratio(e.host.EnginePeak, e.host.ScalarPeak)
		generateS, buildS := inst.setupSplit()
		values["popsim.generate_s"] = generateS
		if buildS > 0 {
			values["setup.store_build_s"] = buildS
		}
		values["trace.overhead_fraction"] = ratio(median(tr.overheadSamples()), median(plain.overheadSamples())) - 1
		values["trace.spans"] = float64(rep.tracer.count())
		values["host.speed_triples_per_s"] = median(tr.speed)
		specs = perLayer
	}
	rep.HostSpeed = median(windows[len(windows)-1].speed)
	for _, m := range windows {
		rep.Attempted += m.ops
		rep.Failed += m.failed
		rep.Samples += len(m.primary)
	}
	att, bad, err := inst.verify()
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", w.Name, err)
	}
	rep.Attempted += att
	rep.Failed += bad
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	rep.ErrorRate = ratio(float64(rep.Failed), float64(rep.Attempted))
	for _, s := range specs {
		v, ok := values[s.Name]
		if ok {
			rep.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
		} else {
			rep.Metrics[s.Name] = metric{Value: "not_measured", Unit: s.Unit}
		}
	}
	return rep, nil
}
