// Command ldstore builds and inspects on-disk tile stores of precomputed
// LD: run the blocked GEMM once, then serve any number of point, region,
// or top-K queries without touching the kernels again.
//
// Usage:
//
//	ldstore build -in data.ldgm -out data.ldts [-tile 256]
//	ldstore build -in data.ldbm -out data.ldts [-io-window 1024] [-checkpoint]
//	ldstore build -in data.ldbm -out data.ldts -resume
//	ldstore build -in data.ldbm -out data.ldts -split-chrom data.bim [-split-workers 4]
//	ldstore build -in data.ldbm -out data.ldss [-stat r2] -threshold 0.2 [-band 500]
//	ldstore convert -in data.bed -out data.ldbm [-window 1024]
//	ldstore info -store data.ldts (or a pruned .ldss store)
//	ldstore query -store data.ldts -i 3 -j 7
//	ldstore query -store data.ldts -start 100 -end 120
//	ldstore query -store data.ldts -top 25
//
// A .ldbm input is the out-of-core path: the bit matrix stays on disk,
// read one panel at a time, and the build streams double-buffered panel
// pairs through the GEMM, so genome-scale inputs never need to fit in
// memory. Every stripe is written back to disk as it streams and the
// finished store is made durable once, at the end. -checkpoint also
// commits progress at most once a second, so a kill loses at most about a
// second of stripes plus the commit in flight; -resume restarts a killed
// build where it left off, producing byte-identical output.
//
// A store holds the joint haplotype counts, 2 bytes a pair for up to
// 65 535 samples and 4 beyond. Without -threshold or -band the store is
// complete (LDTS): every pair, serving r², D and D′ alike; queries here
// print r², and it is the file ldserver's -store flag consumes. With
// -threshold τ > 0 or -band W ≥ 0 it is pruned (LDSS): the counts of the
// pairs whose statistic (-stat) has |value| ≥ τ, selected in the fused
// epilogue, within |i−j| ≤ W, skipping far-off-diagonal GEMM panels
// entirely — the file ldserver's -sparse-store flag consumes. -stat is
// refused on a complete build. The out-of-core, checkpoint, and
// split-chrom machinery apply to both kinds. A pruned store answers only
// pair queries here. A query maps the store and reads the tiles it touches
// in place, checking each on first touch; there is no cache to size. All
// query output is JSON on stdout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/core"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/seqio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ldstore:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: ldstore build|info|query [flags] (-h for details)")
	}
	switch args[0] {
	case "build":
		return runBuild(args[1:], stdout, stderr)
	case "convert":
		return runConvert(args[1:], stdout, stderr)
	case "info":
		return runInfo(args[1:], stdout, stderr)
	case "query":
		return runQuery(args[1:], stdout, stderr)
	}
	return fmt.Errorf("unknown subcommand %q (want build, convert, info, or query)", args[0])
}

func runBuild(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ldstore build", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "dataset path (.ldbm for out-of-core, or .ldgm/.ms, optionally gzipped; required)")
	out := fs.String("out", "", "tile store output path (required)")
	tile := fs.Int("tile", 0, "tile side NT in SNPs (0 = default 256)")
	stat := fs.String("stat", "r2", "statistic a pruned build selects on, r2, d, or dprime (a complete store serves all three)")
	threads := fs.Int("threads", 0, "kernel threads (0 = GOMAXPROCS)")
	ioWindow := fs.Int("io-window", 0, "out-of-core column-panel width in SNPs (0 = default 1024)")
	checkpoint := fs.Bool("checkpoint", false,
		"keep a durable checkpoint (<out>.ckpt/.idx), committed at most once a second, so a killed build can -resume")
	resume := fs.Bool("resume", false, "resume a checkpointed build from where it left off (implies -checkpoint)")
	splitChrom := fs.String("split-chrom", "",
		"variant .bim path; build one store per chromosome, inserting .chr<N> before the output extension")
	splitWorkers := fs.Int("split-workers", 0,
		"per-chromosome builds running concurrently under -split-chrom (0 = GOMAXPROCS, capped at 4)")
	threshold := fs.Float64("threshold", 0,
		"prune: keep only pairs with |value| >= this threshold (0 = keep every pair)")
	band := fs.Int("band", -1,
		"prune: compute only pairs within |i-j| <= band, skipping off-band GEMM (-1 = full matrix; 0 = diagonal only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		fs.Usage()
		return fmt.Errorf("-in and -out are required")
	}
	st, err := ldstore.ParseStat(*stat)
	if err != nil {
		return err
	}
	src, closeSrc, err := openSource(*in)
	if err != nil {
		return err
	}
	defer closeSrc()
	if *threshold == 0 && *band < 0 {
		statSet := false
		fs.Visit(func(f *flag.Flag) { statSet = statSet || f.Name == "stat" })
		if statSet {
			return fmt.Errorf("-stat needs -threshold or -band: a complete store holds the joint counts and serves r2, d and dprime alike")
		}
	}
	build := newBuildFunc(ldstore.SourceBuildOptions{
		BuildOptions: ldstore.BuildOptions{
			TileSize: *tile, Stat: st, Threshold: *threshold,
			Banded: *band >= 0, Band: max(*band, 0),
			LD: core.Options{Blis: blis.Config{Threads: *threads}},
		},
		IOPanelSNPs: *ioWindow,
		Checkpoint:  *checkpoint,
		Resume:      *resume,
	})
	if *splitChrom != "" {
		if *resume || *checkpoint {
			// Each per-chromosome store checkpoints independently; the flags
			// still apply, they just bind to the per-chromosome paths.
			fmt.Fprintf(stderr, "ldstore: checkpoints apply per chromosome store\n")
		}
		return buildSplit(*out, src, build, *splitChrom, *splitWorkers, stderr)
	}
	return build(*out, src, stderr)
}

// buildFunc runs one store build and reports the result to stderr: on a
// failure with durable progress under checkpointing, the re-run hint;
// otherwise what it wrote and where its time went behind the scan — how
// long the scan waited on the output side, and what the writer and the
// committer were busy for meanwhile.
type buildFunc func(out string, src bitmat.Source, stderr io.Writer) error

func newBuildFunc(opt ldstore.SourceBuildOptions) buildFunc {
	return func(out string, src bitmat.Source, stderr io.Writer) error {
		res, err := ldstore.BuildFileFromSource(out, src, opt)
		if err != nil {
			var pe *ldstore.PartialError
			if errors.As(err, &pe) && (opt.Checkpoint || opt.Resume) {
				fmt.Fprintf(stderr, "ldstore: %d/%d stripes durable in %s; re-run with -resume to continue\n",
					pe.FlushedStripes, pe.TotalStripes, out)
			}
			return err
		}
		kind := "counts"
		if opt.Threshold != 0 || opt.Banded {
			kind = fmt.Sprintf("%d entries of pruned %s, threshold %g", res.NNZ, opt.Stat, opt.Threshold)
			if opt.Banded {
				kind += fmt.Sprintf(", band %d", opt.Band)
			}
		}
		resumed := ""
		if res.StartStripe > 0 {
			resumed = fmt.Sprintf(", resumed at stripe %d", res.StartStripe)
		}
		ms := func(ns int64) float64 { return float64(ns) / 1e6 }
		fmt.Fprintf(stderr, "ldstore: wrote %s: %d tiles, %d bytes (%s, %d×%d, peak result memory %d bytes%s; "+
			"scan waited %.1f ms on output, encode+write %.1f ms, %d commits %.1f ms)\n",
			out, res.Tiles, res.FileBytes, kind, src.NumSNPs(), src.NumSamples(), res.PeakResultBytes, resumed,
			ms(res.ScanWaitNanos), ms(res.EncodeWriteNanos), res.Commits, ms(res.CommitNanos))
		return nil
	}
}

// buildSplit builds one store per chromosome of a .bim variant file whose
// records align row-for-row with the input. Each chromosome must be one
// contiguous block, as in a sorted fileset; the per-chromosome stores are
// byte-identical to whole-matrix builds of those row ranges. Up to
// workers chromosomes build concurrently: each build writes its own
// output file and reads panels through its own buffers, so the outputs
// are byte-identical to a sequential run regardless of worker count.
func buildSplit(out string, src bitmat.Source, build buildFunc, bimPath string, workers int, stderr io.Writer) error {
	f, err := os.Open(bimPath)
	if err != nil {
		return err
	}
	bim, err := seqio.ReadBim(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(bim) != src.NumSNPs() {
		return fmt.Errorf("-split-chrom %s has %d variants, input has %d SNPs", bimPath, len(bim), src.NumSNPs())
	}
	type chromRun struct {
		chrom  string
		lo, hi int
	}
	var runs []chromRun
	seen := map[string]bool{}
	for i, rec := range bim {
		if len(runs) > 0 && runs[len(runs)-1].chrom == rec.Chrom {
			runs[len(runs)-1].hi = i + 1
			continue
		}
		if seen[rec.Chrom] {
			return fmt.Errorf("-split-chrom: chromosome %q is not contiguous in %s (reappears at variant %d)",
				rec.Chrom, bimPath, i)
		}
		seen[rec.Chrom] = true
		runs = append(runs, chromRun{chrom: rec.Chrom, lo: i, hi: i + 1})
	}
	if workers <= 0 {
		workers = min(4, runtime.GOMAXPROCS(0))
	}
	workers = min(workers, len(runs))
	ext := filepath.Ext(out)
	base := strings.TrimSuffix(out, ext)
	// Workers report through one line-atomic writer so concurrent
	// per-chromosome progress lines never interleave mid-line.
	sw := &syncWriter{w: stderr}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	errs := make([]error, len(runs))
	for ri, r := range runs {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			sub, err := bitmat.NewSliceSource(src, r.lo, r.hi)
			if err != nil {
				errs[ri] = fmt.Errorf("chromosome %s: %w", r.chrom, err)
				return
			}
			path := base + ".chr" + r.chrom + ext
			fmt.Fprintf(sw, "ldstore: chromosome %s: building %s (%d SNPs)\n", r.chrom, path, r.hi-r.lo)
			if err := build(path, sub, sw); err != nil {
				errs[ri] = fmt.Errorf("chromosome %s: %w", r.chrom, err)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ldstore: split %d SNPs into %d per-chromosome stores\n", src.NumSNPs(), len(runs))
	return nil
}

// syncWriter serializes whole Write calls onto the wrapped writer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// runConvert turns a dataset into a .ldbm bit-matrix container. A .bed
// fileset is converted as a stream — one variant window resident at a
// time, so genome-scale inputs convert in O(window) memory; other formats
// load and rewrite.
func runConvert(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ldstore convert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input path (.bed with companion .bim/.fam, or .ldgm/.ms; required)")
	out := fs.String("out", "", ".ldbm output path (required)")
	window := fs.Int("window", 0, "variants per streamed window for .bed input (0 = default 1024)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		fs.Usage()
		return fmt.Errorf("-in and -out are required")
	}
	if filepath.Ext(*in) == ".bed" {
		prefix := strings.TrimSuffix(*in, ".bed")
		snps, err := countLines(prefix+".bim", func(r io.Reader) (int, error) {
			recs, err := seqio.ReadBim(r)
			return len(recs), err
		})
		if err != nil {
			return err
		}
		samples, err := countLines(prefix+".fam", func(r io.Reader) (int, error) {
			recs, err := seqio.ReadFam(r)
			return len(recs), err
		})
		if err != nil {
			return err
		}
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := durableWrite(*out, func(tmp string) error {
			return seqio.BEDToLDBM(f, snps, samples, tmp, *window)
		}); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "ldstore: converted %s (%d variants × %d samples) to %s (%d haplotypes)\n",
			*in, snps, samples, *out, 2*samples)
		return nil
	}
	m, err := seqio.LoadMatrix(*in)
	if err != nil {
		return err
	}
	if err := durableWrite(*out, func(tmp string) error {
		return bitmat.WriteFile(tmp, m)
	}); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ldstore: converted %s (%d×%d) to %s\n", *in, m.SNPs, m.Samples, *out)
	return nil
}

// Stubbable durability steps, so tests can assert that the converted
// container is fsynced before it takes its final name.
var (
	syncFile   = func(f *os.File) error { return f.Sync() }
	renameFile = os.Rename
)

// durableWrite runs write against a temp path next to out, fsyncs the
// result, and only then renames it into place, so a crash mid-convert
// can never leave a torn file under the final .ldbm name.
func durableWrite(out string, write func(tmp string) error) error {
	tmp := out + ".tmp"
	if err := write(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	f, err := os.OpenFile(tmp, os.O_RDWR, 0)
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncFile(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := renameFile(tmp, out); err != nil {
		os.Remove(tmp)
		return err
	}
	// Best effort: make the rename itself durable.
	if d, err := os.Open(filepath.Dir(out)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// countLines opens a companion metadata file and counts its records.
func countLines(path string, count func(io.Reader) (int, error)) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return count(f)
}

func runInfo(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ldstore info", flag.ContinueOnError)
	fs.SetOutput(stderr)
	path := fs.String("store", "", "tile store path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		fs.Usage()
		return fmt.Errorf("-store is required")
	}
	s, err := ldstore.Open(*path, ldstore.Options{})
	if err != nil {
		return err
	}
	defer s.Close()
	return writeJSON(stdout, s.Info())
}

func runQuery(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ldstore query", flag.ContinueOnError)
	fs.SetOutput(stderr)
	path := fs.String("store", "", "tile store path (required)")
	i := fs.Int("i", -1, "first SNP of a pair query")
	j := fs.Int("j", -1, "second SNP of a pair query")
	start := fs.Int("start", -1, "region start (inclusive)")
	end := fs.Int("end", -1, "region end (exclusive)")
	top := fs.Int("top", 0, "return the K strongest off-diagonal pairs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		fs.Usage()
		return fmt.Errorf("-store is required")
	}
	s, err := ldstore.Open(*path, ldstore.Options{})
	if err != nil {
		return err
	}
	defer s.Close()
	switch {
	case *i >= 0 || *j >= 0:
		v, err := s.At(*i, *j)
		if err != nil {
			return err
		}
		return writeJSON(stdout, map[string]any{
			"i": *i, "j": *j, "stat": s.Stat().String(), "value": v,
		})
	case *start >= 0 || *end >= 0:
		vals, err := s.Region(*start, *end)
		if err != nil {
			return err
		}
		w := *end - *start
		rows := make([][]float64, w)
		for r := range rows {
			rows[r] = vals[r*w : (r+1)*w]
		}
		return writeJSON(stdout, map[string]any{
			"start": *start, "end": *end, "stat": s.Stat().String(), "values": rows,
		})
	case *top > 0:
		pairs, err := s.Top(*top)
		if err != nil {
			return err
		}
		return writeJSON(stdout, map[string]any{
			"k": *top, "stat": s.Stat().String(), "pairs": pairs,
		})
	}
	fs.Usage()
	return fmt.Errorf("give a pair (-i/-j), a region (-start/-end), or -top K")
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// openSource opens a dataset as a bitmat.Source. A .ldbm container stays
// on disk, read a panel at a time, so the build is out of core; every
// other format loads into RAM exactly as before and is wrapped as a
// MemSource (scanned zero-copy, one panel wide).
func openSource(path string) (bitmat.Source, func(), error) {
	if filepath.Ext(path) == ".ldbm" {
		f, err := bitmat.OpenFile(path, false)
		if err != nil {
			return nil, nil, err
		}
		return f, func() { f.Close() }, nil
	}
	m, err := seqio.LoadMatrix(path)
	if err != nil {
		return nil, nil, err
	}
	return bitmat.NewMemSource(m), func() {}, nil
}
