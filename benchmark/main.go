// Command benchmark is the repository's one benchmark: seven workloads
// over every tier, end-to-end metrics with tracing off, and a traced run
// that gives the per-layer metrics. BENCHMARK.json at the repository root
// names the workloads and metrics; README.md here defines them.
//
//	bash benchmark/run.sh --workload serve_store --seed 1 --seconds 8 --trace 0
//	cd benchmark && go run . -seed 1                 every workload, both runs
//	cd benchmark && go run . -seed 1 -repeat 5       five run sets, spread per metric
//	cd benchmark && go run . -compare a.json b.json  delta against bound, per workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 8

// runSet is the file a full run writes: where the numbers were taken and
// every report, one list per pass over the workloads.
type runSet struct {
	Host       hostBlock  `json:"host"`
	RunSeconds float64    `json:"run_seconds"`
	Runs       []oneRun   `json:"runs"`
	Traced     []*report  `json:"traced,omitempty"`
	Spread     spreadRows `json:"spread,omitempty"`
}

type oneRun struct {
	Seed      int64     `json:"seed"`
	Workloads []*report `json:"workloads"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print the driver's one-line result (default: all of them)")
		seed     = flag.Int64("seed", 1, "seed of every generated input and query stream")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: the traced run and its per-layer metrics (default: 0 with -workload, both without)")
		scale    = flag.Int("scale", 1, "divide the input sizes by this power of two (smoke runs)")
		repeat   = flag.Int("repeat", 1, "without -workload: run everything this many times, seeds seed, seed+1, …, and print the spread")
		compare  = flag.Bool("compare", false, "compare two run-set files: -compare parent.json change.json")
		out      = flag.String("out", "out", "directory for result files, traces and scratch data (removed on exit)")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *scale, *repeat, *compare, *out, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace, scale, repeat int, compare bool, out string, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two run-set files")
		}
		return compareFiles(args[0], args[1])
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if scale < 1 || bits.OnesCount(uint(scale)) != 1 {
		return fmt.Errorf("-scale %d is not a power of two", scale)
	}
	if seconds <= 0 || repeat < 1 || trace < -1 || trace > 1 {
		return fmt.Errorf("-seconds and -repeat must be positive, -trace 0 or 1")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(out, "scratch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: seed, scale: scale, threads: runtime.GOMAXPROCS(0), tmp: filepath.Join(tmp, "w"), host: readHost(seed, scale)}

	if workload != "" {
		w := findWorkload(workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", workload)
		}
		rep, err := runWorkload(w, e, seconds, trace == 1)
		if err != nil {
			return err
		}
		if rep.tracer != nil {
			path := filepath.Join(out, fmt.Sprintf("trace-%s-%d.json", w.Name, seed))
			if err := writeTrace(path, e.host, []*report{rep}); err != nil {
				return err
			}
		}
		return printDriverLine(rep)
	}

	set := runSet{Host: e.host, RunSeconds: seconds}
	failed := 0
	for r := 0; r < repeat; r++ {
		e.seed = seed + int64(r)
		one := oneRun{Seed: e.seed}
		for i := range workloads {
			if trace != 1 {
				rep, err := runWorkload(&workloads[i], e, seconds, false)
				if err != nil {
					return err
				}
				one.Workloads = append(one.Workloads, rep)
				failed += rep.Failed
				printReport(rep, endToEnd)
			}
			if trace != 0 && r == 0 {
				rep, err := runWorkload(&workloads[i], e, seconds, true)
				if err != nil {
					return err
				}
				set.Traced = append(set.Traced, rep)
				failed += rep.Failed
				printReport(rep, perLayer)
			}
		}
		if len(one.Workloads) > 0 {
			set.Runs = append(set.Runs, one)
		}
	}
	if len(set.Traced) > 0 {
		if err := writeTrace(filepath.Join(out, fmt.Sprintf("trace-%d.json", seed)), e.host, set.Traced); err != nil {
			return err
		}
	}
	if len(set.Runs) > 1 {
		set.Spread = spreadOf(set.Runs)
		set.Spread.print()
	}
	path := filepath.Join(out, fmt.Sprintf("runs-%d.json", seed))
	if err := writeJSONFile(path, set); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "benchmark: wrote", path)
	if failed > 0 {
		return fmt.Errorf("%d operations failed or failed a correctness check", failed)
	}
	return nil
}

// printDriverLine writes the one JSON object the driver reads as the last
// line of standard output. Every value there is a number: a per-layer
// metric the workload does not exercise reads 0.
func printDriverLine(rep *report) error {
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, make(map[string]metric, len(rep.Metrics))}
	for name, m := range rep.Metrics {
		if _, ok := m.Value.(float64); !ok {
			m.Value = 0.0
		}
		line.Metrics[name] = m
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

func printReport(rep *report, specs []metricSpec) {
	fmt.Printf("%s: correct=%t attempted=%d failed=%d error_rate=%g samples=%d host_speed=%.4g\n",
		rep.Workload, rep.Correct, rep.Attempted, rep.Failed, rep.ErrorRate, rep.Samples, rep.HostSpeed)
	for _, s := range specs {
		switch v := rep.Metrics[s.Name].Value.(type) {
		case float64:
			fmt.Printf("  %-36s %14.6g %s\n", s.Name, v, s.Unit)
		default:
			fmt.Printf("  %-36s %14v\n", s.Name, v)
		}
	}
}

// writeTrace writes every span of the traced reports and, per workload
// and span name, the median self time: a span's duration minus the
// interval its child spans cover.
func writeTrace(path string, host hostBlock, reps []*report) error {
	tf := traceFile{Host: host, SelfByName: make(map[string]map[string]float64)}
	for _, rep := range reps {
		self := make(map[string]float64)
		for name, xs := range rep.tracer.selfSeconds() {
			self[name] = median(xs)
		}
		tf.SelfByName[rep.Workload] = self
		tf.Spans = append(tf.Spans, rep.tracer.spans...)
	}
	if err := writeJSONFile(path, tf); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "benchmark: wrote", path)
	return nil
}
