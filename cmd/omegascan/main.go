// Command omegascan scans a genomic dataset for selective sweeps with the
// Kim–Nielsen ω statistic: the OmegaPlus workload built on the blocked LD
// kernel.
//
// Usage:
//
//	omegascan -in sweep.ldgm -grid 50 -max-each 200
//
// Output: one line per grid position with the maximized ω and the
// maximizing window, then the global peak.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"ldgemm/internal/blis"
	"ldgemm/internal/core"
	"ldgemm/internal/omega"
	"ldgemm/internal/seqio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "omegascan:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("omegascan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input path (.ldgm or .ms, optionally gzipped; required)")
	grid := fs.Int("grid", 100, "number of evaluation positions")
	minEach := fs.Int("min-each", 2, "minimum SNPs on each side of a candidate site")
	maxEach := fs.Int("max-each", 100, "maximum SNPs on each side of a candidate site")
	threads := fs.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *in == "" {
		fs.Usage()
		return fmt.Errorf("-in is required")
	}
	g, err := seqio.LoadMatrix(*in)
	if err != nil {
		return err
	}

	cfg := omega.Config{
		GridPoints: *grid,
		MinEach:    *minEach,
		MaxEach:    *maxEach,
		LD:         core.Options{Blis: blis.Config{Threads: *threads}},
	}
	points, err := omega.Scan(g, cfg)
	if err != nil {
		return err
	}

	w := bufio.NewWriter(stdout)
	defer w.Flush()
	fmt.Fprintf(w, "center,omega,left,right\n")
	best := points[0]
	for _, p := range points {
		fmt.Fprintf(w, "%d,%.4f,%d,%d\n", p.Center, p.Omega, p.Left, p.Right)
		if p.Omega > best.Omega {
			best = p
		}
	}
	fmt.Fprintf(w, "# peak: center=%d omega=%.4f window=[%d,%d)\n",
		best.Center, best.Omega, best.Left, best.Right)
	return nil
}
