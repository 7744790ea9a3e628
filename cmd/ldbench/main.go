// Command ldbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ldbench [flags] <experiment>...
//
// Experiments: fig3 fig4 table1 table2 table3 fig5 simd gaps fsm tanimoto
// ablation popcount banded all
//
// Flags:
//
//	-scale N    divide the paper's dataset dimensions by N (default 10;
//	            use -scale 1 for the full-size runs, which take minutes)
//	-threads    comma-separated thread grid for the comparison tables
//	            (default 1,2,4,8,12 as in the paper)
//	-reps N     best-of repetitions for the peak-fraction figures
//	-csv        emit CSV instead of aligned tables
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"ldgemm/internal/experiments"
	"ldgemm/internal/harness"
	"ldgemm/internal/popsim"
)

var experimentOrder = []string{
	"fig3", "fig4", "table1", "table2", "table3", "fig5",
	"simd", "gaps", "fsm", "tanimoto", "ablation", "popcount", "banded",
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
	fs.Usage = func() {
		fmt.Fprintf(stderr,
			"usage: ldbench [flags] <experiment>...\nexperiments: %s all\nflags:\n",
			strings.Join(experimentOrder, " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	names := fs.Args()
	if len(names) == 0 {
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
	fmt.Fprintf(stderr, "calibrating host peak... ")
	peak := harness.CalibratePeak(300 * time.Millisecond)
	fmt.Fprintf(stderr, "%.3f Gtriples/s\n", peak/1e9)
	cfg := experiments.Config{Scale: *scale, Threads: threads, Reps: *reps, Peak: peak}

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
	case "banded":
		return experiments.Banded(cfg)
	default:
		return nil, fmt.Errorf("unknown experiment (have: %s all)", strings.Join(experimentOrder, " "))
	}
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
