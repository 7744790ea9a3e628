package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/core"
	"ldgemm/internal/kernel"
	"ldgemm/internal/ldsparse"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/popcount"
	"ldgemm/internal/popsim"
)

// mosaic is the cohort model of every input: 16 founders switching every
// 200 SNPs on average, so the sparse tier has real in-band mass (the
// default config leaves barely the diagonal above τ = 0.1).
func mosaic(seed int64) popsim.MosaicConfig {
	return popsim.MosaicConfig{Seed: seed, Founders: 16, SwitchRate: 0.005}
}

// scaled divides a dimension by the -scale divisor, down to a floor that
// keeps the workload well-formed (a few tiles, a few stripes).
func scaled(n, scale, floor int) int { return max(floor, n/scale) }

// minPasses is the least number of timed passes a batch window holds.
const minPasses = 5

// measureBatch runs one untimed warm-up pass and then timed passes until
// both d and minPasses are reached. prepare runs untimed before every
// pass; pass reports whether it delivered what it should.
func measureBatch(e *env, d time.Duration, tr *tracer, name, layer string, pairs float64, kw int,
	prepare func() error, pass func() (bool, error)) (*measurement, error) {
	m := &measurement{batch: true, driverThreads: e.threads}
	var allocs, mallocs []float64
	run := func(op int, tr *tracer) error {
		if err := prepare(); err != nil {
			return err
		}
		if op > 0 {
			m.speed = append(m.speed, sampleSpeed(e.threads))
		}
		before := snap()
		id := tr.start(name, layer, 0, op, false)
		t0 := time.Now()
		ok, err := pass()
		dt := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		after := snap()
		tr.end(id, map[string]uint64{
			"blis.calls":          after.blis.Calls - before.blis.Calls,
			"blis.nanos":          after.blis.Nanos - before.blis.Nanos,
			"blis.epilogue_nanos": after.blis.EpilogueNanos - before.blis.EpilogueNanos,
			"blis.panel_bytes":    after.blis.PanelBytesRead - before.blis.PanelBytesRead,
			"mem.total_alloc":     after.alloc - before.alloc,
		})
		if op == 0 {
			return nil
		}
		m.ops++
		if !ok {
			m.failed++
		}
		m.primary = append(m.primary, dt)
		m.busySeconds += dt
		allocs = append(allocs, float64(after.alloc-before.alloc)/1e6)
		mallocs = append(mallocs, float64(after.malloc-before.malloc))
		return nil
	}
	if err := run(0, nil); err != nil { // the warm-up pass
		return nil, err
	}
	m.before = snap()
	for start := time.Now(); time.Since(start) < d || m.ops < minPasses; {
		if err := run(m.ops+1, tr); err != nil {
			return nil, err
		}
	}
	m.after = snap()
	// Medians: a pass that follows a collection refills the emptied pack
	// arena pool and allocates more than its neighbours.
	m.allocMBPerOp, m.mallocsPerOp = median(allocs), median(mallocs)
	rate := pairs / median(m.primary)
	m.throughput = rate
	peak := float64(e.threads) * e.host.enginePeakFor(m.after.blis.Popcount)
	m.peakFraction = ratio(rate*float64(kw), peak)
	return m, nil
}

// ---- compute_large_k and compute_small_k -------------------------------

// computeInst is a resident matrix scanned by core.Stream: triangular r²,
// 512-row stripes, every thread the host gives, a visitor that only counts.
type computeInst struct {
	e    *env
	g    *bitmat.Matrix
	opt  core.StreamOptions
	genS float64
}

func setupCompute(e *env, snps, samples int) (instance, error) {
	t0 := time.Now()
	g, err := popsim.Mosaic(snps, samples, mosaic(e.seed))
	if err != nil {
		return nil, err
	}
	return &computeInst{e: e, g: g, genS: time.Since(t0).Seconds(), opt: core.StreamOptions{
		Triangular: true, StripeRows: 512,
		Options: core.Options{Blis: blis.Config{Threads: e.threads}},
	}}, nil
}

func setupComputeLargeK(e *env) (instance, error) {
	return setupCompute(e, scaled(1024, e.scale, 256), scaled(65536, e.scale, 2048))
}

func setupComputeSmallK(e *env) (instance, error) {
	return setupCompute(e, scaled(8192, e.scale, 512), 512)
}

func (c *computeInst) setupSplit() (float64, float64) { return c.genS, 0 }
func (c *computeInst) close()                         {}

func trianglePairs(n int) int64 { return int64(n) * int64(n+1) / 2 }

func (c *computeInst) measure(d time.Duration, tr *tracer) (*measurement, error) {
	want := trianglePairs(c.g.SNPs)
	return measureBatch(c.e, d, tr, "core.Stream", "core", float64(want), bitmat.WordsFor(c.g.Samples),
		func() error { return nil },
		func() (bool, error) {
			var pairs int64
			err := core.Stream(c.g, c.opt, func(i, j0 int, row []float64) { pairs += int64(len(row)) })
			return pairs == want, err
		})
}

// verify checks, untimed: the pair count and a checksum of every value
// delivered, identical across two passes, and 1000 seeded pairs against
// core.PairLD.
func (c *computeInst) verify() (int, int, error) {
	n := c.g.SNPs
	rng := rand.New(rand.NewSource(c.e.seed ^ 0x5eed))
	sampled := make(map[int][]int)
	const checks = 1000
	for k := 0; k < checks; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i > j {
			i, j = j, i
		}
		sampled[i] = append(sampled[i], j)
	}
	bad := 0
	var sums [2]float64
	for p := range sums {
		var pairs int64
		err := core.Stream(c.g, c.opt, func(i, j0 int, row []float64) {
			pairs += int64(len(row))
			for _, v := range row {
				sums[p] += v
			}
			if p > 0 {
				return
			}
			for _, j := range sampled[i] {
				if math.Abs(row[j-j0]-core.PairLD(c.g, i, j).R2) > 1e-12 {
					bad++
				}
			}
		})
		if err != nil {
			return 0, 0, err
		}
		if pairs != trianglePairs(n) {
			bad++
		}
	}
	if math.Float64bits(sums[0]) != math.Float64bits(sums[1]) {
		bad++
	}
	return checks + 3, bad, nil
}

// blockSNPs is the leading block the direct driver calls run on: a
// counts-only Syrk needs the dense n² count matrix Stream exists to avoid.
const blockSNPs = 2048

func (c *computeInst) probe(tr *tracer, plain, traced *measurement, out metrics) error {
	e := c.e
	kw := bitmat.WordsFor(c.g.Samples)
	micro := kernelProbes(e.host, out)
	microRate := micro.k1024
	if kw < blis.CSAMinWords {
		microRate = micro.k8
	}

	// core over blis: Stream on the leading block, then the counts-only
	// driver on the same block as its child.
	nb := min(c.g.SNPs, scaled(blockSNPs, e.scale, 256))
	block := c.g.Slice(0, nb)
	counts := make([]uint32, nb*nb)
	noop := func(int, int, []float64) {}
	var syrk, stream, self []float64
	for r := 0; r < 3; r++ {
		parent, st, err := tr.timed("core.Stream[block]", "core", 0, r+1, false,
			func() error { return core.Stream(block, c.opt, noop) })
		if err != nil {
			return err
		}
		_, sy, err := tr.timed("blis.Syrk[block]", "blis", parent, r+1, true,
			func() error { return blis.Syrk(c.opt.Blis, block, counts, nb, false) })
		if err != nil {
			return err
		}
		stream, syrk, self = append(stream, st), append(syrk, sy), append(self, st-sy)
	}
	syrkRate := float64(trianglePairs(nb)) * float64(kw) / median(syrk)
	out["blis.syrk_triples_per_s"] = syrkRate
	out["blis.fraction_of_kernel"] = ratio(syrkRate, float64(e.threads)*microRate)
	out["core.epilogue_self_s"] = median(self)
	out["core.fraction_of_driver"] = ratio(median(syrk), median(stream))

	// A plain single-threaded pass of the same problem is the baseline
	// for thread efficiency; one thread per core, never more.
	if e.threads >= 2 {
		one := c.opt
		one.Blis.Threads = 1
		var t1 []float64
		for r := 0; r < 2; r++ {
			_, d, err := tr.timed("core.Stream[threads=1]", "core", 0, r+1, false,
				func() error { return core.Stream(c.g, one, noop) })
			if err != nil {
				return err
			}
			t1 = append(t1, d)
		}
		out["blis.thread_efficiency"] = ratio(median(t1), float64(e.threads)*median(traced.primary))
	}

	// One full pack sweep of the matrix against one pass: an estimate,
	// since the driver repacks B panels once per stripe.
	_, pack, _ := tr.timed("kernel.PackPanel[sweep]", "kernel", 0, 1, false,
		func() error { packSweep(c.g, kw); return nil })
	out["blis.pack_share_est"] = ratio(pack, median(traced.primary))
	return nil
}

// packSweep packs every SNP of g once in the layout the driver would use
// at that k, KC words at a time.
func packSweep(g *bitmat.Matrix, kw int) {
	cfg := blis.DefaultConfig()
	mr := cfg.Kernel.MR
	pack := kernel.PackPanel
	if kw >= blis.CSAMinWords {
		pack = kernel.PackPanelRuns
	}
	dst := make([]uint64, cfg.KC*mr)
	for pc := 0; pc < kw; pc += cfg.KC {
		kc := min(cfg.KC, kw-pc)
		for snp := 0; snp < g.SNPs; snp += mr {
			pack(dst, g, snp, min(mr, g.SNPs-snp), mr, pc, kc)
		}
	}
}

type microRates struct{ k8, k1024 float64 }

var microSink uint32

// kernelProbes times one MR×NR micro-tile the way the driver dispatches
// it: at k = 8 words the scalar micro-kernel on interleaved panels, at
// k = 1024 words the batched engine on run-packed panels, KC words per
// slab. The run-kernel loop lives unexported inside blis, so the k1024
// probe repeats its few lines around the public engine call.
func kernelProbes(h hostBlock, out metrics) microRates {
	cfg := blis.DefaultConfig()
	k := cfg.Kernel
	const snps = 64
	g, err := popsim.Mosaic(snps, 1024*64, mosaic(1))
	if err != nil {
		panic(err) // fixed arguments: only a bug can fail here
	}
	c := make([]uint32, k.MR*k.NR)
	timeIt := func(triplesPerCall float64, call func()) float64 {
		best := 0.0
		for elapsed := time.Duration(0); elapsed < 60*time.Millisecond; {
			const reps = 256
			t0 := time.Now()
			for r := 0; r < reps; r++ {
				call()
			}
			d := time.Since(t0)
			elapsed += d
			best = max(best, reps*triplesPerCall/d.Seconds())
		}
		microSink += c[0]
		return best
	}
	cells := float64(k.MR * k.NR)

	ap, bp := make([]uint64, 8*k.MR), make([]uint64, 8*k.NR)
	kernel.PackPanel(ap, g, 0, k.MR, k.MR, 0, 8)
	kernel.PackPanel(bp, g, k.MR, k.NR, k.NR, 0, 8)
	r8 := timeIt(cells*8, func() { k.Fn(8, ap, bp, c, k.NR) })

	count, enginePeak := popcount.AndCountCSA, h.EnginePeak
	if popcount.HasVector() {
		count = popcount.AndCountVector
	}
	kc := cfg.KC
	ar, br := make([]uint64, kc*k.MR), make([]uint64, kc*k.NR)
	kernel.PackPanelRuns(ar, g, 0, k.MR, k.MR, 0, kc)
	kernel.PackPanelRuns(br, g, k.MR, k.NR, k.NR, 0, kc)
	slabs := 1024 / kc
	r1024 := timeIt(cells*float64(slabs*kc), func() {
		for s := 0; s < slabs; s++ {
			for i := 0; i < k.MR; i++ {
				ai := ar[i*kc : (i+1)*kc]
				for j := 0; j < k.NR; j++ {
					c[i*k.NR+j] += uint32(count(ai, br[j*kc:(j+1)*kc]))
				}
			}
		}
	})

	t0 := time.Now()
	const sweeps = 8
	for s := 0; s < sweeps; s++ {
		packSweep(g, 1024)
	}
	out["kernel.pack_words_per_s"] = sweeps * snps * 1024 / time.Since(t0).Seconds()
	out["kernel.micro_triples_per_s_k8"] = r8
	out["kernel.micro_triples_per_s_k1024"] = r1024
	out["kernel.fraction_of_engine_k8"] = ratio(r8, h.ScalarPeak)
	out["kernel.fraction_of_engine_k1024"] = ratio(r1024, enginePeak)
	return microRates{k8: r8, k1024: r1024}
}

// ---- build_dense_ooc and build_sparse_banded ---------------------------

// buildInst builds a store from a .ldbm file opened for windowed reads,
// with the checkpoint protocol on, over and over into the same path.
type buildInst struct {
	e      *env
	sparse bool
	src    *bitmat.File
	out    string
	pairs  int64 // pairs the schedule delivers per build
	stream core.StreamOptions
	build  func() (fileBytes, nnz int64, err error)
	genS   float64
	hashes map[string]bool // SHA-256 of every finished container hashed
	last   struct{ fileBytes, nnz int64 }
}

const (
	buildTile    = 128
	buildIOPanel = 256
	sparseTau    = 0.1
	sparseBand   = 512
)

func setupBuild(e *env, sparse bool, snps, samples int) (instance, error) {
	b := &buildInst{e: e, sparse: sparse, hashes: make(map[string]bool)}
	ldbm := filepath.Join(e.tmp, "cohort.ldbm")
	t0 := time.Now()
	if err := popsim.MosaicToLDBM(ldbm, snps, samples, mosaic(e.seed), 1024); err != nil {
		return nil, err
	}
	b.genS = time.Since(t0).Seconds()
	src, err := bitmat.OpenFile(ldbm, false)
	if err != nil {
		return nil, err
	}
	b.src = src
	ld := core.Options{Blis: blis.Config{Threads: e.threads}}
	// The scan the builders run, for the driver-only child span.
	b.stream = core.StreamOptions{Options: ld, StripeRows: buildTile, Triangular: true, Exact: true, IOPanelSNPs: buildIOPanel}
	if sparse {
		band := min(sparseBand, snps-1)
		b.out = filepath.Join(e.tmp, "cohort.ldss")
		b.stream.Banded, b.stream.Band = true, band
		b.pairs = int64(snps)*int64(band+1) - int64(band)*int64(band+1)/2
		b.build = func() (int64, int64, error) {
			st, err := ldsparse.BuildFileFromSource(b.out, src, ldsparse.SourceBuildOptions{
				BuildOptions: ldsparse.BuildOptions{TileSize: buildTile, Threshold: sparseTau, Banded: true, Band: band, LD: ld},
				IOPanelSNPs:  buildIOPanel, Checkpoint: true,
			})
			return st.FileBytes, st.NNZ, err
		}
	} else {
		b.out = filepath.Join(e.tmp, "cohort.ldts")
		b.pairs = trianglePairs(snps)
		b.build = func() (int64, int64, error) {
			st, err := ldstore.BuildFileFromSource(b.out, src, ldstore.SourceBuildOptions{
				BuildOptions: ldstore.BuildOptions{TileSize: buildTile, LD: ld},
				IOPanelSNPs:  buildIOPanel, Checkpoint: true,
			})
			return st.FileBytes, 0, err
		}
	}
	return b, nil
}

func setupBuildDense(e *env) (instance, error) {
	return setupBuild(e, false, scaled(4096, e.scale, 256), 2048)
}

func setupBuildSparse(e *env) (instance, error) {
	return setupBuild(e, true, scaled(16384, e.scale, 512), 2048)
}

func (b *buildInst) setupSplit() (float64, float64) { return b.genS, 0 }
func (b *buildInst) close()                         { b.src.Close() }

func (b *buildInst) layer() string {
	if b.sparse {
		return "ldsparse"
	}
	return "ldstore"
}

// removeStore deletes the previous build's container and sidecars.
func (b *buildInst) removeStore() error {
	for _, p := range []string{b.out, b.out + ".ckpt", b.out + ".idx"} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

func (b *buildInst) measure(d time.Duration, tr *tracer) (*measurement, error) {
	m, err := measureBatch(b.e, d, tr, b.layer()+".BuildFileFromSource", b.layer(),
		float64(b.pairs), b.src.Words(), b.removeStore,
		func() (bool, error) {
			fileBytes, nnz, err := b.build()
			b.last.fileBytes, b.last.nnz = fileBytes, nnz
			return fileBytes > 0, err
		})
	if err != nil {
		return nil, err
	}
	// The finished container of every window is hashed, untimed: all
	// builds of one input must be the same bytes.
	sum, err := fileSHA256(b.out)
	if err != nil {
		return nil, err
	}
	b.hashes[sum] = true
	return m, nil
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// verify checks, untimed: a fresh build hashes like the measured ones,
// the store re-opens with the right dimensions, and its values are
// bit-equal to core.PairLD. Sample counts are powers of two, so PairLD's
// division by n and the epilogue's multiplication by 1/n round alike.
func (b *buildInst) verify() (int, int, error) {
	if err := b.removeStore(); err != nil {
		return 0, 0, err
	}
	if _, _, err := b.build(); err != nil {
		return 0, 0, err
	}
	sum, err := fileSHA256(b.out)
	if err != nil {
		return 0, 0, err
	}
	b.hashes[sum] = true
	attempted, bad := 2, 0
	if len(b.hashes) != 1 {
		bad++
	}
	g, err := b.src.Load()
	if err != nil {
		return 0, 0, err
	}
	n := g.SNPs
	rng := rand.New(rand.NewSource(b.e.seed ^ 0x5eed))
	if !b.sparse {
		s, err := ldstore.Open(b.out, ldstore.Options{})
		if err != nil {
			return attempted, bad + 1, nil
		}
		defer s.Close()
		if s.SNPs() != n || s.Samples() != g.Samples {
			bad++
		}
		const checks = 1000
		for k := 0; k < checks; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			v, err := s.At(i, j)
			if err != nil || math.Float64bits(v) != math.Float64bits(core.PairLD(g, i, j).R2) {
				bad++
			}
		}
		return attempted + checks, bad, nil
	}
	s, err := ldsparse.Open(b.out, ldsparse.Options{})
	if err != nil {
		return attempted, bad + 1, nil
	}
	defer s.Close()
	if s.SNPs() != n || s.Samples() != g.Samples || s.NNZ() != b.last.nnz {
		bad++
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	rows := min(256, n)
	r0 := rng.Intn(n - rows + 1)
	y, err := s.MatVecRange(x, r0, r0+rows)
	if err != nil {
		return attempted + rows, bad + rows, nil
	}
	for i := r0; i < r0+rows; i++ {
		if math.Float64bits(y[i-r0]) != math.Float64bits(bandedFold(g, x, i, s.Band(), sparseTau)) {
			bad++
		}
	}
	return attempted + rows, bad, nil
}

// bandedFold is row i of R·x over the kept entries of a banded, pruned
// r² matrix, folded in ascending j: the order ldsparse.MatVec promises.
func bandedFold(g *bitmat.Matrix, x []float64, i, band int, tau float64) float64 {
	var y float64
	for j := max(0, i-band); j <= min(g.SNPs-1, i+band); j++ {
		if v := core.PairLD(g, min(i, j), max(i, j)).R2; math.Abs(v) >= tau {
			y += v * x[j]
		}
	}
	return y
}

func (b *buildInst) probe(tr *tracer, plain, traced *measurement, out metrics) error {
	// The build over the driver: the same source and scan options through
	// core.StreamSource with a visitor that does nothing, as the child of
	// a build span.
	var self, build []float64
	for r := 0; r < 3; r++ {
		if err := b.removeStore(); err != nil {
			return err
		}
		parent, bt, err := tr.timed(b.layer()+".BuildFileFromSource[probe]", b.layer(), 0, r+1, false,
			func() error { _, _, err := b.build(); return err })
		if err != nil {
			return err
		}
		_, st, err := tr.timed("core.StreamSource[noop]", "core", parent, r+1, true,
			func() error { return core.StreamSource(b.src, b.stream, func(int, int, []float64) {}) })
		if err != nil {
			return err
		}
		build, self = append(build, bt), append(self, bt-st)
	}
	mb := float64(b.last.fileBytes) / 1e6
	if b.sparse {
		out["ldsparse.build_self_s"] = median(self)
		out["ldsparse.nnz"] = float64(b.last.nnz)
		out["ldsparse.bytes_per_nnz"] = ratio(float64(b.last.fileBytes), float64(b.last.nnz))
		out["ldsparse.store_mb"] = mb
	} else {
		out["ldstore.build_self_s"] = median(self)
		out["ldstore.build_self_share"] = ratio(median(self), median(build))
		out["ldstore.write_mb_per_s"] = ratio(mb, median(traced.primary))
		out["ldstore.bytes_per_pair"] = ratio(float64(b.last.fileBytes), float64(b.pairs))
		out["ldstore.store_mb"] = mb
	}

	// bitmat: one sweep of Source.Panel at the build's window. In a
	// sandbox these are page-cache reads, not disk reads.
	var bytes int64
	_, sweep, err := tr.timed("bitmat.Source.Panel[sweep]", "bitmat", 0, 1, false, func() error {
		var buf *bitmat.Matrix
		for lo := 0; lo < b.src.NumSNPs(); lo += buildIOPanel {
			hi := min(lo+buildIOPanel, b.src.NumSNPs())
			p, err := b.src.Panel(lo, hi, buf)
			if err != nil {
				return err
			}
			buf = p
			bytes += int64(hi-lo) * int64(b.src.Words()) * 8
		}
		return nil
	})
	out["bitmat.panel_read_mb_per_s"] = ratio(float64(bytes)/1e6, sweep)
	return err
}
