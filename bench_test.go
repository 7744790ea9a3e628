// Benchmarks regenerating the shape of every table and figure in the
// paper's evaluation. Each benchmark mirrors one experiment at a reduced
// size suitable for `go test -bench`; the full-scale runs (paper
// dimensions) are produced by cmd/ldbench and recorded in EXPERIMENTS.md.
//
// Custom metrics: peak% is the fraction of the host's calibrated peak
// (the paper's Figures 3–4 y-axis) — for the default driver that of the
// engine it runs (experiments.DriverPeak), for the scalar kernel shapes
// the AND+POPCNT+ADD issue rate — MLD/s is million pairwise LD
// computations per second (Tables I–III).
package ldgemm

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ldgemm/internal/baselines"
	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/core"
	"ldgemm/internal/experiments"
	"ldgemm/internal/harness"
	"ldgemm/internal/kernel"
	"ldgemm/internal/popsim"
	"ldgemm/internal/simdsim"
	"ldgemm/internal/tanimoto"
)

var (
	peakOnce, driverPeakOnce sync.Once
	peakRate, driverPeakRate float64
)

// hostPeak calibrates once per benchmark binary run.
func hostPeak() float64 {
	peakOnce.Do(func() { peakRate = harness.CalibratePeak(300 * time.Millisecond) })
	return peakRate
}

// driverPeak is the peak of the engine a default blis.Config drives,
// calibrated once like hostPeak.
func driverPeak() float64 {
	driverPeakOnce.Do(func() {
		driverPeakRate, _ = experiments.DriverPeak(experiments.Config{Peak: hostPeak()})
	})
	return driverPeakRate
}

func benchMatrix(b *testing.B, seed uint64, snps, samples int) *bitmat.Matrix {
	b.Helper()
	m := bitmat.New(snps, samples)
	state := seed*0x9e3779b97f4a7c15 + 1
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

// BenchmarkFig3 is Figure 3: the symmetric rank-k update (H = GᵀG) at
// fixed n while the sample dimension k grows; the reported peak% should
// stay flat and high as k increases (the paper's 84–90% band).
func BenchmarkFig3(b *testing.B) {
	peak := driverPeak()
	for _, n := range []int{512, 1024} {
		for _, k := range []int{1024, 4096, 16384} {
			g := benchMatrix(b, uint64(n+k), n, k)
			c := make([]uint32, n*n)
			triples := int64(n) * int64(n+1) / 2 * int64(g.Words)
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					clear(c)
					if err := blis.Syrk(blis.Config{Threads: 1}, g, c, n, false); err != nil {
						b.Fatal(err)
					}
				}
				rate := float64(triples) * float64(b.N) / b.Elapsed().Seconds()
				b.ReportMetric(100*rate/peak, "peak%")
				b.ReportMetric(rate/1e9, "Gtriples/s")
			})
		}
	}
}

// BenchmarkFig4 is Figure 4: the same sweep with two different genomic
// matrices (all m×n outputs computed).
func BenchmarkFig4(b *testing.B) {
	peak := driverPeak()
	for _, n := range []int{512, 1024} {
		for _, k := range []int{1024, 4096, 16384} {
			ga := benchMatrix(b, uint64(3*n+k), n, k)
			gb := benchMatrix(b, uint64(5*n+k), n, k)
			c := make([]uint32, n*n)
			triples := int64(n) * int64(n) * int64(ga.Words)
			b.Run(fmt.Sprintf("m=n=%d/k=%d", n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					clear(c)
					if err := blis.Gemm(blis.Config{Threads: 1}, ga, gb, c, n); err != nil {
						b.Fatal(err)
					}
				}
				rate := float64(triples) * float64(b.N) / b.Elapsed().Seconds()
				b.ReportMetric(100*rate/peak, "peak%")
				b.ReportMetric(rate/1e9, "Gtriples/s")
			})
		}
	}
}

// benchComparison runs one paper comparison table (I, II, or III) at the
// given scale: the three kernels on the same dataset, MLD/s reported.
func benchComparison(b *testing.B, ds popsim.Dataset, scale int) {
	g, err := ds.Generate(scale)
	if err != nil {
		b.Fatal(err)
	}
	hap := g
	if hap.Samples%2 != 0 {
		hap = hap.Slice(0, hap.SNPs) // dims already even for the paper sizes
	}
	geno, err := bitmat.FromHaplotypes(hap)
	if err != nil {
		b.Fatal(err)
	}
	pairs := int64(g.SNPs) * int64(g.SNPs+1) / 2
	report := func(b *testing.B) {
		b.ReportMetric(float64(pairs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MLD/s")
	}
	b.Run("PLINK-like", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.Plink{Threads: 1}.R2Sum(geno)
		}
		report(b)
	})
	b.Run("OmegaPlus-like", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.Vector{Threads: 1}.R2Sum(g)
		}
		report(b)
	})
	b.Run("GEMM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.SumR2(g, core.StreamOptions{
				Options: core.Options{Blis: blis.Config{Threads: 1}},
			}); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
}

// BenchmarkTable1 is Table I (dataset A: 10,000 SNPs × 2,504 sequences),
// at 1/10 scale.
func BenchmarkTable1(b *testing.B) { benchComparison(b, popsim.DatasetA, 10) }

// BenchmarkTable2 is Table II (dataset B: 10,000 × 10,000), at 1/10 scale.
func BenchmarkTable2(b *testing.B) { benchComparison(b, popsim.DatasetB, 10) }

// BenchmarkTable3 is Table III (dataset C: 10,000 × 100,000), at 1/20
// scale (the sample dimension is what makes this the heavy dataset).
func BenchmarkTable3(b *testing.B) { benchComparison(b, popsim.DatasetC, 20) }

// BenchmarkFig5 is Figure 5: GEMM LD throughput as the thread count grows
// past the physical cores; the MLD/s metric saturates at the core count.
func BenchmarkFig5(b *testing.B) {
	g, err := popsim.DatasetC.Generate(20)
	if err != nil {
		b.Fatal(err)
	}
	pairs := int64(g.SNPs) * int64(g.SNPs+1) / 2
	for _, threads := range []int{1, 2, 4, 8, 16, 24} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.SumR2(g, core.StreamOptions{
					Options: core.Options{Blis: blis.Config{Threads: threads}},
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pairs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MLD/s")
		})
	}
}

// BenchmarkSIMDModel is the Section V argument: simulated cycles per word
// for the three instruction-set scenarios. cyc/word for SIMD without a
// hardware popcount never drops below scalar; with one it scales as 1/v.
func BenchmarkSIMDModel(b *testing.B) {
	cases := []struct {
		name  string
		sc    simdsim.Scenario
		lanes int
	}{
		{"scalar", simdsim.Scalar, 1},
		{"simd-nohw/v=4", simdsim.SIMDNoHW, 4},
		{"simd-nohw/v=8", simdsim.SIMDNoHW, 8},
		{"simd-hw/v=4", simdsim.SIMDHW, 4},
		{"simd-hw/v=8", simdsim.SIMDHW, 8},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var res simdsim.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = simdsim.Run(c.sc, 1024, c.lanes)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.CyclesPerWord, "cyc/word")
		})
	}
}

// BenchmarkMaskedLD is the Section VII gaps ablation: masked LD (4 counts
// a pair, one plain rank-k update over the interleaved value and mask
// rows) against the plain kernel on identical input — and the masked call
// again as on a host without the vector tile (masked-portable), where the
// default kernel is the Go 4x4.
func BenchmarkMaskedLD(b *testing.B) {
	const n, k = 512, 4096
	g := benchMatrix(b, 77, n, k)
	mask := bitmat.NewMask(n, k)
	for i := 0; i < n; i++ {
		for s := 0; s < k; s += 31 {
			mask.Invalidate(i, s)
		}
	}
	if err := mask.ApplyTo(g); err != nil {
		b.Fatal(err)
	}
	b.Run("plain", func(b *testing.B) {
		c := make([]uint32, n*n)
		for i := 0; i < b.N; i++ {
			clear(c)
			if err := blis.Syrk(blis.Config{Threads: 1}, g, c, n, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	masked := func(b *testing.B) {
		c := make([]uint32, n*n*4)
		for i := 0; i < b.N; i++ {
			clear(c)
			if err := blis.MaskedSyrk(blis.Config{Threads: 1}, g, mask, c, n); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("masked", masked)
	b.Run("masked-portable", func(b *testing.B) {
		defer kernel.DisableVectorTileForTest()()
		masked(b)
	})
}

// BenchmarkFSM is the Section VII finite-sites ablation: 4-state LD with
// Zaykin's T versus the 1-bit ISM kernel at the same dimensions (paper
// bound: ≤16× plus epilogue).
func BenchmarkFSM(b *testing.B) {
	const n, k = 256, 512
	g := benchMatrix(b, 88, n, k)
	cols := make([][]byte, n)
	alpha := []byte("ACGT")
	state := uint64(99)
	for i := range cols {
		cols[i] = make([]byte, k)
		for s := range cols[i] {
			state = state*6364136223846793005 + 1
			cols[i][s] = alpha[state>>62]
		}
	}
	fsm, err := core.FromDNA(cols)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ISM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Matrix(g, core.Options{Measures: core.MeasureR2, Blis: blis.Config{Threads: 1}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FSM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.FSMLD(fsm, core.Options{Blis: blis.Config{Threads: 1}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTanimoto is the Section VII chemistry adaptation: all-pairs
// fingerprint similarity through the GEMM path versus per-pair popcounts.
func BenchmarkTanimoto(b *testing.B) {
	const compounds, bits = 1024, 2048
	fp, err := tanimoto.Random(compounds, bits, 0.3, 7)
	if err != nil {
		b.Fatal(err)
	}
	pairs := float64(compounds) * float64(compounds+1) / 2
	b.Run("per-pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for x := 0; x < compounds; x++ {
				for y := x; y < compounds; y++ {
					_ = fp.Pair(x, y)
				}
			}
		}
		b.ReportMetric(pairs*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpairs/s")
	})
	b.Run("GEMM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fp.AllPairs(blis.Config{Threads: 1}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(pairs*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpairs/s")
	})
}

// BenchmarkAblationBlocking isolates what the GotoBLAS structure buys:
// the same count workload via per-sample naive loops, the unblocked
// vector kernel, and the blocked GEMM.
func BenchmarkAblationBlocking(b *testing.B) {
	const n, k = 384, 8192
	g := benchMatrix(b, 55, n, k)
	pairs := float64(n) * float64(n+1) / 2
	report := func(b *testing.B) {
		b.ReportMetric(pairs*float64(b.N)/b.Elapsed().Seconds()/1e6, "MLD/s")
	}
	b.Run("naive-per-sample", func(b *testing.B) {
		// One outer iteration is n(n+1)/2 × k bit operations; keep N low.
		for i := 0; i < b.N; i++ {
			baselines.Naive{Threads: 1}.R2Sum(g)
		}
		report(b)
	})
	b.Run("vector-unblocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.Vector{Threads: 1}.R2Sum(g)
		}
		report(b)
	})
	b.Run("gemm-blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.SumR2(g, core.StreamOptions{
				Options: core.Options{Blis: blis.Config{Threads: 1}},
			}); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
}

// BenchmarkAblationKernelShape is the register-shape ablation at kc = 128
// words: each shape's own Fn on L1-resident packed panels — the 1x1
// per-pair dot product, the Go 4x4 and, where it differs, the host default
// — then the blocked driver with the default config, named for the variant
// it runs. Under the driver a Go kernel at this k runs the per-cell dot
// product around its shape, so only the kernel rows measure the shapes.
func BenchmarkAblationKernelShape(b *testing.B) {
	const n, k = 512, 8192
	g := benchMatrix(b, 66, n, k)
	peak := hostPeak()
	kc := g.Words
	shapes := kernel.Fixed
	if kernel.Default.Lanes > 1 {
		shapes = append(shapes[:len(shapes):len(shapes)], kernel.Default)
	}
	for _, kn := range shapes {
		ap, bp := make([]uint64, kc*kn.MR), make([]uint64, kc*kn.NR)
		kernel.PackPanel(ap, g, 0, kn.MR, kn.MR, 0, kc)
		kernel.PackPanel(bp, g, kn.MR, kn.NR, kn.NR, 0, kc)
		c := make([]uint32, kn.MR*kn.NR)
		b.Run("kernel/"+kn.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kn.Fn(kc, ap, bp, c, kn.NR)
			}
			rate := float64(kc*kn.MR*kn.NR) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(100*rate/peak, "peak%")
		})
	}
	triples := int64(n) * int64(n+1) / 2 * int64(kc)
	c := make([]uint32, n*n)
	cfg := blis.Config{Threads: 1}
	if err := blis.Syrk(cfg, g, c, n, false); err != nil { // names the route
		b.Fatal(err)
	}
	b.Run("driver/"+blis.ReadStats().Variant, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clear(c)
			if err := blis.Syrk(cfg, g, c, n, false); err != nil {
				b.Fatal(err)
			}
		}
		rate := float64(triples) * float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(100*rate/peak, "peak%")
	})
}

// BenchmarkStreamSmallK is the small-k regime of ROADMAP item 5 (the
// benchmark module's compute_small_k): 8192 SNPs × 512 samples through a
// triangular r² core.Stream with a visitor that only counts. At eight
// sample words per SNP the count→r² conversion is a first-order cost next
// to the AND+POPCNT+ADD kernel, so besides Mpairs/s it reports what the
// fused epilogue costs per delivered pair (wall time inside the hook,
// summed over workers).
func BenchmarkStreamSmallK(b *testing.B) {
	const n, k = 8192, 512
	g := benchMatrix(b, 15, n, k)
	want := int64(n) * int64(n+1) / 2
	opt := core.StreamOptions{Triangular: true}
	before := blis.ReadStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var pairs int64
		err := core.Stream(g, opt, func(_, _ int, row []float64) { pairs += int64(len(row)) })
		if err != nil {
			b.Fatal(err)
		}
		if pairs != want {
			b.Fatalf("visited %d pairs, want %d", pairs, want)
		}
	}
	epiNanos := blis.ReadStats().EpilogueNanos - before.EpilogueNanos
	total := float64(want) * float64(b.N)
	b.ReportMetric(total/b.Elapsed().Seconds()/1e6, "Mpairs/s")
	b.ReportMetric(float64(epiNanos)/total, "epilogue-ns/pair")
}

// BenchmarkStreamLargeK is BenchmarkStreamSmallK's twin at the shape of
// the benchmark module's compute_large_k: 1024 SNPs × 65 536 samples, a
// triangular r² core.Stream in 512-row stripes, so two stripes, with a
// visitor that only counts. Here the vector popcount kernel does the work,
// so a scan schedule that trades kernel time for fewer idle cores shows up
// here first.
func BenchmarkStreamLargeK(b *testing.B) {
	const n, k = 1024, 65536
	g := benchMatrix(b, 17, n, k)
	want := int64(n) * int64(n+1) / 2
	opt := core.StreamOptions{Triangular: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var pairs int64
		err := core.Stream(g, opt, func(_, _ int, row []float64) { pairs += int64(len(row)) })
		if err != nil {
			b.Fatal(err)
		}
		if pairs != want {
			b.Fatalf("visited %d pairs, want %d", pairs, want)
		}
	}
	b.ReportMetric(float64(want)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpairs/s")
}

// BenchmarkStreamSource is the scan of the benchmark module's
// build_dense_ooc on its own: 4096 SNPs × 2048 samples from a windowed
// .ldbm, triangular exact r², stripes of 128 rows against 256-SNP column
// panels — 288 driver calls of about 100 µs — with a visitor that does
// nothing, at 1 and 2 threads. Calls this small run on the caller alone
// (blis's small-call rule), so the two rows must read alike; before the
// rule the second thread's wake-ups made the 2-thread scan the slower one.
func BenchmarkStreamSource(b *testing.B) {
	const n, k = 4096, 2048
	path := filepath.Join(b.TempDir(), "g.ldbm")
	if err := bitmat.WriteFile(path, benchMatrix(b, 16, n, k)); err != nil {
		b.Fatal(err)
	}
	src, err := bitmat.OpenFile(path, false)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			opt := core.StreamOptions{Triangular: true, Exact: true, StripeRows: 128, IOPanelSNPs: 256}
			opt.Blis.Threads = threads
			for i := 0; i < b.N; i++ {
				if err := core.StreamSource(src, opt, func(int, int, []float64) {}); err != nil {
					b.Fatal(err)
				}
			}
			pairs := float64(n) * float64(n+1) / 2 * float64(b.N)
			b.ReportMetric(pairs/b.Elapsed().Seconds()/1e6, "Mpairs/s")
		})
	}
}
