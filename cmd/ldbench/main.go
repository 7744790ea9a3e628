// Command ldbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ldbench [flags] <experiment>...
//
// Experiments: fig3 fig4 table1 table2 table3 fig5 simd gaps fsm tanimoto
// ablation popcount all
//
// Flags:
//
//	-scale N    divide the paper's dataset dimensions by N (default 10;
//	            use -scale 1 for the full-size runs, which take minutes)
//	-threads    comma-separated thread grid for the comparison tables
//	            (default 1,2,4,8,12 as in the paper)
//	-reps N     best-of repetitions for the peak-fraction figures
//	-csv        emit CSV instead of aligned tables
//	-json PATH  also write a machine-readable BENCH_ld.json benchmark
//	            (shape, threads, triples/sec, speedup vs Reference); with
//	            -json, the experiment list may be empty
//	-epilogue MODE        fused (default) or split count-to-measure
//	                      conversion for the experiments' LD pipeline
//	-epilogue-json PATH   write a fused-vs-split end-to-end benchmark
//	                      (BENCH_epilogue.json); with it, the experiment
//	                      list may be empty
//	-write-tune-profile PATH   run the joint autotuner (kernel shape ×
//	                      popcount strategy × blocking × epilogue ×
//	                      threads) and persist the winner as a per-host
//	                      profile for ldserver/ldstore -tune-profile;
//	                      with it, the experiment list may be empty
//	-tune-budget D        autotuner measurement budget (default 2s)
//	-store-json PATH      generate a .ldbm dataset on disk (never
//	                      resident), build a tile store from it out of
//	                      core, and write the build-throughput +
//	                      prefetch-stall benchmark (BENCH_store.json);
//	                      the input is held at 2× the allocation budget,
//	                      which is enforced at full size. With it, the
//	                      experiment list may be empty. -store-window
//	                      sets the I/O panel width.
//	-cluster-json PATH    boot an in-process 2-strip × 2-replica cluster,
//	                      drive randomized load while killing one replica
//	                      mid-run, and write the resilience benchmark
//	                      (BENCH_cluster.json: sustained QPS, tail
//	                      latency, zero failures/partials, result-cache
//	                      probe); with it, the experiment list may be
//	                      empty. -cluster-duration and -cluster-workers
//	                      size the run.
//	-sparse-json PATH     build one dataset as a dense LDTS store, a
//	                      threshold-pruned sparse LDSS store, and a
//	                      banded LDSS store; verify the sparse R·v
//	                      matvec bit-identical to a dense fold over the
//	                      kept entries; and write the store-size ratio,
//	                      banded build speedup, and matvec throughput
//	                      (BENCH_sparse.json); with it, the experiment
//	                      list may be empty
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/core"
	"ldgemm/internal/experiments"
	"ldgemm/internal/harness"
	"ldgemm/internal/popsim"
)

var experimentOrder = []string{
	"fig3", "fig4", "table1", "table2", "table3", "fig5",
	"simd", "gaps", "fsm", "tanimoto", "ablation", "popcount", "tuned", "banded",
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ldbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ldbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 10, "divide the paper's dataset dimensions by this factor (1 = full size)")
	threadsFlag := fs.String("threads", "1,2,4,8,12", "comma-separated thread counts for comparison tables")
	reps := fs.Int("reps", 3, "best-of repetitions for peak-fraction figures")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonPath := fs.String("json", "", "write a machine-readable benchmark to this path (e.g. BENCH_ld.json)")
	epilogue := fs.String("epilogue", "fused",
		"count-to-measure epilogue for the experiments: fused (in-driver, default) or split (legacy two-phase)")
	epilogueJSON := fs.String("epilogue-json", "",
		"write a fused-vs-split epilogue benchmark to this path (e.g. BENCH_epilogue.json); with it, the experiment list may be empty")
	writeProfile := fs.String("write-tune-profile", "",
		"run the autotuner and persist the winner as a per-host profile at this path (loadable via ldserver/ldstore -tune-profile); with it, the experiment list may be empty")
	tuneBudget := fs.Duration("tune-budget", 2*time.Second, "autotuner measurement budget for -write-tune-profile")
	storeJSON := fs.String("store-json", "",
		"write an out-of-core store-build benchmark to this path (e.g. BENCH_store.json); with it, the experiment list may be empty")
	storeWindow := fs.Int("store-window", 0, "I/O column-panel width in SNPs for -store-json (0 = default 256)")
	clusterJSON := fs.String("cluster-json", "",
		"write a replica-cluster resilience benchmark to this path (e.g. BENCH_cluster.json); with it, the experiment list may be empty")
	clusterDuration := fs.Duration("cluster-duration", 6*time.Second,
		"load window for -cluster-json; one replica is killed halfway through")
	clusterWorkers := fs.Int("cluster-workers", 8, "concurrent client workers for -cluster-json")
	sparseJSON := fs.String("sparse-json", "",
		"write a sparse/banded tier benchmark to this path (e.g. BENCH_sparse.json); with it, the experiment list may be empty")
	fs.Usage = func() {
		fmt.Fprintf(stderr,
			"usage: ldbench [flags] <experiment>...\nexperiments: %s all\nflags:\n",
			strings.Join(experimentOrder, " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	var emode core.EpilogueMode
	switch *epilogue {
	case "fused", "":
		emode = core.EpilogueAuto
	case "split":
		emode = core.EpilogueSplit
	default:
		return fmt.Errorf("-epilogue must be \"fused\" or \"split\", got %q", *epilogue)
	}

	names := fs.Args()
	if len(names) == 0 && *jsonPath == "" && *epilogueJSON == "" && *writeProfile == "" && *clusterJSON == "" && *storeJSON == "" && *sparseJSON == "" {
		fs.Usage()
		return fmt.Errorf("no experiment named")
	}
	if len(names) == 1 && names[0] == "all" {
		names = experimentOrder
	}

	threads, err := parseThreads(*threadsFlag)
	if err != nil {
		return err
	}
	if *writeProfile != "" {
		if err := writeTuneProfile(*writeProfile, *tuneBudget, stderr); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		if err := writeBenchJSON(*jsonPath, *scale, threads, stderr); err != nil {
			return err
		}
	}
	if *epilogueJSON != "" {
		if err := writeEpilogueJSON(*epilogueJSON, *scale, threads, stderr); err != nil {
			return err
		}
	}
	if *storeJSON != "" {
		if err := writeStoreJSON(*storeJSON, *scale, *storeWindow, stderr); err != nil {
			return err
		}
	}
	if *clusterJSON != "" {
		if err := writeClusterJSON(*clusterJSON, *scale, *clusterDuration, *clusterWorkers, stderr); err != nil {
			return err
		}
	}
	if *sparseJSON != "" {
		if err := writeSparseJSON(*sparseJSON, *scale, stderr); err != nil {
			return err
		}
	}
	if len(names) == 0 {
		return nil
	}
	fmt.Fprintf(stderr, "calibrating host peak... ")
	peak := harness.CalibratePeak(300 * time.Millisecond)
	fmt.Fprintf(stderr, "%.3f Gtriples/s\n", peak/1e9)
	cfg := experiments.Config{Scale: *scale, Threads: threads, Reps: *reps, Peak: peak, Epilogue: emode}

	for _, name := range names {
		tbl, err := dispatch(name, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		tables := []*harness.Table{tbl}
		if name == "simd" {
			// Section V's third scenario, measured: the hardware vector
			// popcount kernel beside the model's T/v.
			hw, err := experiments.SIMDHardware(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			tables = append(tables, hw)
		}
		for _, tbl := range tables {
			if *csv {
				if err := tbl.CSV(stdout); err != nil {
					return err
				}
			} else {
				if err := tbl.Render(stdout); err != nil {
					return err
				}
			}
			fmt.Fprintln(stdout)
		}
	}
	return nil
}

func dispatch(name string, cfg experiments.Config) (*harness.Table, error) {
	switch name {
	case "fig3":
		return experiments.Fig3(cfg)
	case "fig4":
		return experiments.Fig4(cfg)
	case "table1":
		return experiments.ComparisonTable(popsim.DatasetA, cfg)
	case "table2":
		return experiments.ComparisonTable(popsim.DatasetB, cfg)
	case "table3":
		return experiments.ComparisonTable(popsim.DatasetC, cfg)
	case "fig5":
		return experiments.Fig5(cfg)
	case "simd":
		return experiments.SIMD(cfg)
	case "gaps":
		return experiments.Gaps(cfg)
	case "fsm":
		return experiments.FSM(cfg)
	case "tanimoto":
		return experiments.Tanimoto(cfg)
	case "ablation":
		return experiments.Ablation(cfg)
	case "popcount":
		return experiments.PopcountAblation(cfg)
	case "tuned":
		return experiments.Tuned(cfg)
	case "banded":
		return experiments.Banded(cfg)
	default:
		return nil, fmt.Errorf("unknown experiment (have: %s all)", strings.Join(experimentOrder, " "))
	}
}

// benchRun is one threads point of the JSON benchmark.
type benchRun struct {
	Threads            int     `json:"threads"`
	TriplesPerSec      float64 `json:"triples_per_sec"`
	SpeedupVsReference float64 `json:"speedup_vs_reference"`
}

// kernelPoint is one k (sample words) column of the popcount-strategy
// benchmark: the scalar micro-kernel against the auto-dispatched winner
// on the same problem, with the count matrices asserted equal.
type kernelPoint struct {
	KWords             int     `json:"k_words"`
	Samples            int     `json:"samples"`
	Variant            string  `json:"variant"`
	Popcount           string  `json:"popcount"`
	ScalarGcellsPerSec float64 `json:"scalar_gcells_per_sec"`
	AutoGcellsPerSec   float64 `json:"auto_gcells_per_sec"`
	Speedup            float64 `json:"speedup"`
}

// benchReport is the BENCH_ld.json schema: the perf trajectory tracked
// across PRs.
type benchReport struct {
	SNPs                   int        `json:"snps"`
	Samples                int        `json:"samples"`
	Words                  int        `json:"words"`
	ReferenceTriplesPerSec float64    `json:"reference_triples_per_sec"`
	Runs                   []benchRun `json:"runs"`
	// Kernel is the scalar-vs-batched dispatch trajectory across k, on a
	// single thread (the per-core story, as in the paper's peak analysis).
	Kernel []kernelPoint `json:"kernel"`
}

// writeBenchJSON measures the blocked Syrk against Reference on a probe
// matrix sized by scale and writes the machine-readable report.
func writeBenchJSON(path string, scale int, threads []int, stderr io.Writer) error {
	snps := max(64, 4096/scale)
	samples := max(128, 2048/scale)
	g, err := popsim.Mosaic(snps, samples, popsim.MosaicConfig{Seed: 1})
	if err != nil {
		return err
	}
	c := make([]uint32, snps*snps)
	// Syrk fills the upper triangle: n(n+1)/2 SNP pairs, Words words each.
	triangle := float64(snps) * float64(snps+1) / 2 * float64(g.Words)
	full := float64(snps) * float64(snps) * float64(g.Words)

	clear(c)
	start := time.Now()
	if err := blis.Reference(g, g, c, snps); err != nil {
		return err
	}
	refRate := full / time.Since(start).Seconds()

	rep := benchReport{
		SNPs: snps, Samples: samples, Words: g.Words,
		ReferenceTriplesPerSec: refRate,
	}
	for _, t := range threads {
		clear(c)
		start := time.Now()
		if err := blis.Syrk(blis.Config{Threads: t}, g, c, snps, false); err != nil {
			return err
		}
		rate := triangle / time.Since(start).Seconds()
		rep.Runs = append(rep.Runs, benchRun{
			Threads: t, TriplesPerSec: rate, SpeedupVsReference: rate / refRate,
		})
	}
	kernel, err := benchKernelDispatch(scale, stderr)
	if err != nil {
		return err
	}
	rep.Kernel = kernel

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ldbench: wrote %s (%d×%d, %d thread points, %d kernel points)\n",
		path, snps, samples, len(threads), len(kernel))
	return nil
}

// benchKernelDispatch measures the scalar micro-kernel against the
// auto-dispatched popcount strategy across k ∈ {4, 16, 64, 256} sample
// words on the 8192-SNP acceptance shape (divided by scale). Where the
// default is the vector tile, auto is that tile at every k; elsewhere
// short k dispatches back to scalar and the speedup column there records
// the absence of a regression, not a win. Each point asserts the two
// count triangles are identical before timing is believed.
func benchKernelDispatch(scale int, stderr io.Writer) ([]kernelPoint, error) {
	snps := max(64, 8192/scale)
	var points []kernelPoint
	for _, kw := range []int{4, 16, 64, 256} {
		samples := kw * 64
		g, err := popsim.Mosaic(snps, samples, popsim.MosaicConfig{Seed: 3})
		if err != nil {
			return nil, err
		}
		cells := float64(snps) * float64(snps+1) / 2 * float64(g.Words)
		scalarC := make([]uint32, snps*snps)
		autoC := make([]uint32, snps*snps)

		start := time.Now()
		if err := blis.Syrk(blis.Config{Threads: 1, Popcount: blis.PopcountScalar}, g, scalarC, snps, false); err != nil {
			return nil, err
		}
		scalarRate := cells / time.Since(start).Seconds()

		start = time.Now()
		if err := blis.Syrk(blis.Config{Threads: 1}, g, autoC, snps, false); err != nil {
			return nil, err
		}
		autoRate := cells / time.Since(start).Seconds()
		st := blis.ReadStats()

		// Syrk's contract is the upper triangle; which below-diagonal cells
		// the diagonal-crossing tiles fill in passing depends on the
		// register tile, and the two runs need not share one.
		for i := 0; i < snps; i++ {
			for j := i; j < snps; j++ {
				if autoC[i*snps+j] != scalarC[i*snps+j] {
					return nil, fmt.Errorf("kernel bench k=%d: auto dispatch diverged from scalar at (%d,%d) (%d != %d)",
						kw, i, j, autoC[i*snps+j], scalarC[i*snps+j])
				}
			}
		}
		points = append(points, kernelPoint{
			KWords: kw, Samples: samples,
			Variant: st.Variant, Popcount: st.Popcount,
			ScalarGcellsPerSec: scalarRate / 1e9,
			AutoGcellsPerSec:   autoRate / 1e9,
			Speedup:            autoRate / scalarRate,
		})
		fmt.Fprintf(stderr, "ldbench: kernel k=%d words: scalar %.3f auto %.3f Gcells/s (%.2fx, %s/%s)\n",
			kw, scalarRate/1e9, autoRate/1e9, autoRate/scalarRate, st.Variant, st.Popcount)
	}
	return points, nil
}

// writeTuneProfile runs the joint autotuner and persists the winner as a
// per-host profile the serving binaries load via -tune-profile.
func writeTuneProfile(path string, budget time.Duration, stderr io.Writer) error {
	res, err := blis.Tune(blis.TuneOptions{
		Budget:      budget,
		MaxThreads:  runtime.NumCPU(),
		ProfilePath: path,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ldbench: tuned %d configs; winner %s/%s MC/NC/KC %d/%d/%d at %.3f Gtriples/s; profile written to %s\n",
		res.Evaluated, res.Variant, res.Popcount,
		res.Config.MC, res.Config.NC, res.Config.KC,
		res.TriplesPerSecond/1e9, path)
	return nil
}

// epiloguePoint is one thread count of the fused-vs-split epilogue
// benchmark: end-to-end all-pairs r² (core.Matrix) wall time and heap
// allocation under each mode.
type epiloguePoint struct {
	Threads         int     `json:"threads"`
	FusedSeconds    float64 `json:"fused_seconds"`
	SplitSeconds    float64 `json:"split_seconds"`
	FusedAllocBytes uint64  `json:"fused_alloc_bytes"`
	SplitAllocBytes uint64  `json:"split_alloc_bytes"`
	Speedup         float64 `json:"speedup"`
}

// epilogueReport is the BENCH_epilogue.json schema.
type epilogueReport struct {
	SNPs    int `json:"snps"`
	Samples int `json:"samples"`
	Words   int `json:"words"`
	// CountsBytes is the dense n²·4-byte count matrix the split pipeline
	// materializes per call and the fused pipeline never allocates.
	CountsBytes uint64          `json:"counts_bytes"`
	Points      []epiloguePoint `json:"points"`
}

// measureMatrix times one warmed end-to-end core.Matrix call and reports
// its heap allocation. A prior call warms the arena pool so the fused
// number reflects steady-state serving, not first-call scratch growth.
func measureMatrix(g *bitmat.Matrix, opt core.Options) (time.Duration, uint64, error) {
	if _, err := core.Matrix(g, opt); err != nil {
		return 0, 0, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if _, err := core.Matrix(g, opt); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return elapsed, m1.TotalAlloc - m0.TotalAlloc, nil
}

// writeEpilogueJSON benchmarks all-pairs r² end to end — blocked SYRK
// plus the count-to-measure conversion — with the fused and the split
// epilogue on the acceptance shape (8192/scale SNPs) across the thread
// grid, and writes the machine-readable report.
func writeEpilogueJSON(path string, scale int, threads []int, stderr io.Writer) error {
	snps := max(64, 8192/scale)
	samples := max(128, 2048/scale)
	g, err := popsim.Mosaic(snps, samples, popsim.MosaicConfig{Seed: 1})
	if err != nil {
		return err
	}
	rep := epilogueReport{
		SNPs: snps, Samples: samples, Words: g.Words,
		CountsBytes: uint64(snps) * uint64(snps) * 4,
	}
	for _, t := range threads {
		base := core.Options{Measures: core.MeasureR2, Blis: blis.Config{Threads: t}}
		fusedOpt := base
		fusedOpt.Epilogue = core.EpilogueFused
		splitOpt := base
		splitOpt.Epilogue = core.EpilogueSplit
		fw, fa, err := measureMatrix(g, fusedOpt)
		if err != nil {
			return err
		}
		sw, sa, err := measureMatrix(g, splitOpt)
		if err != nil {
			return err
		}
		rep.Points = append(rep.Points, epiloguePoint{
			Threads:      t,
			FusedSeconds: fw.Seconds(), SplitSeconds: sw.Seconds(),
			FusedAllocBytes: fa, SplitAllocBytes: sa,
			Speedup: sw.Seconds() / fw.Seconds(),
		})
		fmt.Fprintf(stderr, "ldbench: epilogue %d threads: fused %.3fs split %.3fs (%.2fx)\n",
			t, fw.Seconds(), sw.Seconds(), sw.Seconds()/fw.Seconds())
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ldbench: wrote %s (%d×%d, %d thread points)\n",
		path, snps, samples, len(rep.Points))
	return nil
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		t, err := strconv.Atoi(f)
		if err != nil || t < 1 {
			return nil, fmt.Errorf("invalid thread count %q", f)
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty thread list")
	}
	return out, nil
}
