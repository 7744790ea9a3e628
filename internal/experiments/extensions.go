package experiments

import (
	"fmt"
	"math/rand"

	"ldgemm/internal/baselines"
	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/core"
	"ldgemm/internal/harness"
	"ldgemm/internal/kernel"
	"ldgemm/internal/perfmodel"
	"ldgemm/internal/popcount"
	"ldgemm/internal/tanimoto"
)

// sectionVWords is the operand length of Section V's loops: two 8 KiB
// operands, resident in L1.
const sectionVWords = 1024

// A sectionVLoop is one of Section V's seven loops: Σ popcount(a[i] & b[i])
// over n words, n a multiple of 8, 64 bytes of each operand an iteration.
// At one lane it is the scalar AND/POPCNT/ADD loop; at v lanes a vector
// AND whose lanes move to general registers for POPCNTQ or, with hw, are
// counted in place by VPOPCNTQ. runs reports whether the host has needs.
type sectionVLoop struct {
	name  string
	lanes int
	hw    bool
	runs  bool
	needs string
	fn    func(a, b *uint64, n int) uint64
}

// sectionVLoops lists the loops in the Section V table's order. Every host
// with AVX2 or AVX-512 (popcount.HasVector) has POPCNT and SSE4.1 too.
func sectionVLoops() []sectionVLoop {
	avx2, vpop := popcount.HasVector(), popcount.HasAVX512VPOPCNTDQ()
	vl := vpop && popcount.HasAVX512VL()
	return []sectionVLoop{
		{"scalar", 1, false, avx2, "POPCNT", andCountScalar},
		{"extract/v=2", 2, false, avx2, "AVX2", andCountExtract2},
		{"vpopcntq/v=2", 2, true, vl, "AVX-512 VPOPCNTDQ+VL", andCountVPOPCNT2},
		{"extract/v=4", 4, false, avx2, "AVX2", andCountExtract4},
		{"vpopcntq/v=4", 4, true, vl, "AVX-512 VPOPCNTDQ+VL", andCountVPOPCNT4},
		{"extract/v=8", 8, false, popcount.HasAVX512F(), "AVX-512F", andCountExtract8},
		{"vpopcntq/v=8", 8, true, vpop, "AVX-512 VPOPCNTDQ", andCountVPOPCNT8},
	}
}

// sectionVOperands returns two random operands of sectionVWords words.
func sectionVOperands() (a, b []uint64) {
	rng := rand.New(rand.NewSource(5))
	a, b = make([]uint64, sectionVWords), make([]uint64, sectionVWords)
	for i := range a {
		a[i], b[i] = rng.Uint64(), rng.Uint64()
	}
	return a, b
}

// SIMD reproduces the Section V analysis on this host: the analytical
// model's cycles per word beside each loop's measured time, for scalar and
// for SIMD widths with and without a hardware vector popcount. No cycle
// counter is read: a loop's cycles are its time over the scalar loop's, in
// units of the model's scalar cycles. A loop the host cannot run is "not
// measured".
func SIMD(cfg Config) (*harness.Table, error) {
	cfg = cfg.normalize()
	model := perfmodel.Default()
	tbl := &harness.Table{
		Title: "Section V: SIMD benefit analysis (cycles per 64-bit word, scalar loop = model; lower is better)",
		Headers: []string{
			"lanes v", "scenario", "model cyc/word", "measured ns/word", "measured cyc/word",
			"speedup vs scalar", "share of v-lane peak",
		},
	}
	loops := sectionVLoops()
	a, b := sectionVOperands()
	want := uint64(popcount.AndCount(a, b))
	const calls = 4096
	var ran []int // indices into loops of the loops the host runs
	var passes []func() error
	for i, l := range loops {
		if !l.runs {
			continue
		}
		if got := l.fn(&a[0], &b[0], len(a)); got != want {
			return nil, fmt.Errorf("section V loop %s counts %d, want %d", l.name, got, want)
		}
		ran = append(ran, i)
		passes = append(passes, func() error {
			for c := 0; c < calls; c++ {
				l.fn(&a[0], &b[0], len(a))
			}
			return nil
		})
	}
	// Best of at least 5 passes of about a millisecond each, the loops
	// taking turns so that each sees the same clock.
	best, err := harness.Interleaved(max(cfg.Reps, 5), passes...)
	if err != nil {
		return nil, err
	}
	ns := make([]float64, len(loops))
	for j, i := range ran {
		ns[i] = float64(best[j].Nanoseconds()) / (calls * sectionVWords)
	}
	for i, l := range loops {
		scenario, predicted, err := "scalar (Section IV kernel)", model.ScalarCyclesPerWord(), error(nil)
		switch {
		case l.hw:
			scenario = "SIMD, hardware vector POPCNT"
			predicted, err = model.HWCyclesPerWord(l.lanes)
		case l.lanes > 1:
			scenario = "SIMD, scalar POPCNT (extract/insert)"
			predicted, err = model.SIMDCyclesPerWord(l.lanes)
		}
		if err != nil {
			return nil, err
		}
		if ns[i] == 0 {
			tbl.AddRow(fmt.Sprint(l.lanes), scenario, harness.F(predicted, 2),
				"not measured (no "+l.needs+")", "-", "-", "-")
			continue
		}
		speedup := ns[0] / ns[i]
		tbl.AddRow(fmt.Sprint(l.lanes), scenario, harness.F(predicted, 2), harness.F(ns[i], 3),
			harness.F(model.ScalarCyclesPerWord()/speedup, 2), harness.F(speedup, 2),
			harness.F(100*speedup/float64(l.lanes), 1)+"%")
	}
	return tbl, nil
}

// SIMDHardware measures Section V's third scenario in the micro-kernel:
// "SIMD with a hardware vector popcount" is the AVX-512 VPOPCNTQ
// micro-kernel (v = 8 lanes), so the model's T_HW = T/v predicts an 8×
// kernel over the scalar one. Each row times one register tile per
// call on L1-resident packed panels — the kernels alone, no driver — at a
// short, a medium and a full KC slab. Where the host cannot run the tile
// the measured columns say so.
func SIMDHardware(cfg Config) (*harness.Table, error) {
	cfg = cfg.normalize()
	const v = 8
	model := perfmodel.Default()
	hw, err := model.HWCyclesPerWord(v)
	if err != nil {
		return nil, err
	}
	predicted := model.ScalarCyclesPerWord() / hw
	tbl := &harness.Table{
		Title: "Section V with a hardware vector popcount: the AVX-512 VPOPCNTQ tile against the scalar kernel (one register tile per call, one core)",
		Headers: []string{
			"kc (words)", "scalar " + kernel.Portable.Name + " Gtriples/s", kernel.AVX512Name + " Gtriples/s",
			"measured T/T_HW", "model T/T_HW (v = 8)", "share of model",
		},
	}
	kernels := []kernel.Kernel{kernel.Portable}
	if kernel.Default.Lanes > 1 {
		kernels = append(kernels, kernel.Default)
	}
	g := randomMatrix(7, 16, 256*64)
	for _, kc := range []int{8, 32, 256} {
		passes := make([]func() error, len(kernels))
		triples := make([]int, len(kernels))
		for i, k := range kernels {
			ap, bp := make([]uint64, kc*k.MR), make([]uint64, kc*k.NR)
			kernel.PackPanel(ap, g, 0, k.MR, k.MR, 0, kc)
			kernel.PackPanel(bp, g, 8, k.NR, k.NR, 0, kc)
			c := make([]uint32, k.MR*k.NR)
			calls := max(1, (1<<22)/(kc*k.MR*k.NR)) // ≈ 4 M triples per timed pass
			triples[i] = calls * kc * k.MR * k.NR
			passes[i] = func() error {
				for r := 0; r < calls; r++ {
					k.Fn(kc, ap, bp, c, k.NR)
				}
				return nil
			}
		}
		// A ratio of two millisecond-scale passes: best of at least 5
		// each, the kernels taking turns so that both see the same clock.
		best, err := harness.Interleaved(max(cfg.Reps, 5), passes...)
		if err != nil {
			return nil, err
		}
		scalar := float64(triples[0]) / best[0].Seconds()
		if len(kernels) == 1 {
			tbl.AddRow(fmt.Sprint(kc), harness.F(scalar/1e9, 2), "not measured (no AVX-512 VPOPCNTDQ)", "-",
				harness.F(predicted, 2), "-")
			continue
		}
		vec := float64(triples[1]) / best[1].Seconds()
		tbl.AddRow(fmt.Sprint(kc), harness.F(scalar/1e9, 2), harness.F(vec/1e9, 2),
			harness.F(vec/scalar, 2), harness.F(predicted, 2), harness.F(100*vec/scalar/predicted, 1)+"%")
	}
	return tbl, nil
}

// Gaps is the Section VII alignment-gaps ablation: gap-aware (masked) LD
// versus plain LD on the same matrix. The masked call is one plain rank-k
// update over the interleaved (value, mask) rows — twice the SNPs, so four
// counts a pair in one sweep of the same kernel — and the expected ratio
// is about 4×, plus the interleaving and the repack of each run into
// four-count cells.
func Gaps(cfg Config) (*harness.Table, error) {
	cfg = cfg.normalize()
	n := max(4096/cfg.Scale, 64)
	k := max(8192/cfg.Scale, 128)
	g := randomMatrix(99, n, k)
	mask := bitmat.NewMask(n, k)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		for s := 0; s < k; s += 17 {
			if rng.Intn(3) == 0 {
				mask.Invalidate(i, s)
			}
		}
	}
	gm := g.Clone()
	if err := mask.ApplyTo(gm); err != nil {
		return nil, err
	}

	plain := make([]uint32, n*n)
	quad := make([]uint32, n*n*4)
	// Warm-up: the first driver call of each family pays one-time costs
	// (pack-arena allocation); keep them out of the timed comparison.
	if err := blis.Syrk(blis.Config{Threads: 1}, gm, plain, n, false); err != nil {
		return nil, err
	}
	if err := blis.MaskedSyrk(blis.Config{Threads: 1}, gm, mask, quad, n); err != nil {
		return nil, err
	}
	// The reported number is a ratio of two short runs, so a one-off
	// scheduler blip or clock change on either side inverts it: best of at
	// least 3 each, the two taking turns.
	best, err := harness.Interleaved(max(cfg.Reps, 3), func() error {
		clear(plain)
		return blis.Syrk(blis.Config{Threads: 1}, gm, plain, n, false)
	}, func() error {
		clear(quad)
		return blis.MaskedSyrk(blis.Config{Threads: 1}, gm, mask, quad, n)
	})
	if err != nil {
		return nil, err
	}
	tPlain, tMasked := best[0].Seconds(), best[1].Seconds()
	tbl := &harness.Table{
		Title:   fmt.Sprintf("Section VII (gaps): masked vs unmasked LD, %d SNPs × %d samples", n, k),
		Headers: []string{"kernel", "counts/pair", "pairs computed", "time (s)", "slowdown vs plain"},
	}
	tbl.AddRow("plain Syrk (upper triangle)", "1", fmt.Sprint(int64(n)*int64(n+1)/2),
		harness.F(tPlain, 3), "1.00")
	tbl.AddRow("masked Syrk (upper triangle)", "4", fmt.Sprint(int64(n)*int64(n+1)/2),
		harness.F(tMasked, 3), harness.F(tMasked/tPlain, 2))
	return tbl, nil
}

// FSM is the Section VII finite-sites ablation: multi-allelic LD (Zaykin's
// T over 16 plane-pair GEMMs plus a validity GEMM) versus the ISM kernel
// on the same dimensions. The paper bounds the worst case at 16×.
func FSM(cfg Config) (*harness.Table, error) {
	cfg = cfg.normalize()
	n := max(2048/cfg.Scale, 48)
	k := max(2048/cfg.Scale, 64)
	rng := rand.New(rand.NewSource(6))
	cols := make([][]byte, n)
	alpha := []byte("ACGT")
	for i := range cols {
		cols[i] = make([]byte, k)
		for s := range cols[i] {
			if rng.Intn(20) == 0 {
				cols[i][s] = '-'
			} else {
				cols[i][s] = alpha[rng.Intn(4)]
			}
		}
	}
	fsm, err := core.FromDNA(cols)
	if err != nil {
		return nil, err
	}
	g := randomMatrix(123, n, k)

	// A ratio of two single runs inverts on one scheduler blip; best of
	// at least three on each side, taking turns, as Gaps does.
	best, err := harness.Interleaved(max(cfg.Reps, 3), func() error {
		_, err := core.Matrix(g, core.Options{Measures: core.MeasureR2, Blis: blis.Config{Threads: 1}})
		return err
	}, func() error {
		_, err := core.FSMLD(fsm, core.Options{Blis: blis.Config{Threads: 1}})
		return err
	})
	if err != nil {
		return nil, err
	}
	tISM, tFSM := best[0].Seconds(), best[1].Seconds()
	tbl := &harness.Table{
		Title:   fmt.Sprintf("Section VII (finite sites): FSM vs ISM LD, %d SNPs × %d samples", n, k),
		Headers: []string{"model", "GEMMs", "time (s)", "ratio vs ISM", "paper bound"},
	}
	tbl.AddRow("infinite sites (1-bit)", "1", harness.F(tISM, 3), "1.00", "1x")
	tbl.AddRow("finite sites (4-state, T statistic)", "17",
		harness.F(tFSM, 3), harness.F(tFSM/tISM, 2), "≤16x + epilogue")
	return tbl, nil
}

// Tanimoto is the Section VII cross-domain demonstration: all-pairs 2-D
// fingerprint similarity through the same GEMM machinery versus a naive
// per-pair kernel.
func Tanimoto(cfg Config) (*harness.Table, error) {
	cfg = cfg.normalize()
	compounds := max(8192/cfg.Scale, 256)
	// Fingerprint width is a domain constant (2-D fingerprints are
	// 512–2048 bits regardless of library size); only the library scales.
	const bits = 1024
	fp, err := tanimoto.Random(compounds, bits, 0.3, 7)
	if err != nil {
		return nil, err
	}
	tGemm, err := harness.Time(0, func() error {
		_, err := fp.AllPairs(blis.Config{Threads: 1})
		return err
	})
	if err != nil {
		return nil, err
	}
	// Both kernels materialize the full symmetric similarity matrix so the
	// comparison is output-for-output.
	out := make([]float64, compounds*compounds)
	tNaive, err := harness.Time(0, func() error {
		for i := 0; i < compounds; i++ {
			for j := i; j < compounds; j++ {
				v := fp.Pair(i, j)
				out[i*compounds+j] = v
				out[j*compounds+i] = v
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tbl := &harness.Table{
		Title:   fmt.Sprintf("Section VII (chemistry): Tanimoto all-pairs, %d compounds × %d bits", compounds, bits),
		Headers: []string{"kernel", "time (s)", "Mpairs/s", "speedup"},
	}
	pairs := float64(compounds) * float64(compounds+1) / 2
	tbl.AddRow("per-pair popcount", harness.F(tNaive.Elapsed.Seconds(), 3),
		harness.F(pairs/tNaive.Elapsed.Seconds()/1e6, 2), "1.00")
	tbl.AddRow("blocked GEMM", harness.F(tGemm.Elapsed.Seconds(), 3),
		harness.F(pairs/tGemm.Elapsed.Seconds()/1e6, 2),
		harness.F(tNaive.Elapsed.Seconds()/tGemm.Elapsed.Seconds(), 2))
	return tbl, nil
}

// Ablation quantifies the design choices DESIGN.md calls out: cache
// blocking (the unblocked vector kernel against the blocked driver) and the
// micro-kernel's register shape. A shape row times the kernel's own Fn on
// L1-resident packed panels (calibrateKernel, as SIMDHardware and
// BenchmarkMicroKernel do) — under the driver a Go kernel at k ≥
// blis.CSAMinWords runs the per-cell dot product around its shape, not its
// register tile, so a driver row per shape would not measure the shape.
// The one driver row runs the default configuration and is labelled with
// the variant the driver reports for it.
func Ablation(cfg Config) (*harness.Table, error) {
	cfg = cfg.normalize()
	n := max(2048/cfg.Scale, 64)
	k := max(16384/cfg.Scale, 256)
	g := randomMatrix(321, n, k)
	tbl := &harness.Table{
		Title:   fmt.Sprintf("Ablations on %d SNPs × %d samples (single thread)", n, k),
		Headers: []string{"variant", "time (s)", "Gtriples/s", "% of peak"},
	}
	triples := syrkTriples(n, g.Words)
	rateRow := func(name, seconds string, rate float64) {
		tbl.AddRow(name, seconds, harness.F(rate/1e9, 2), harness.F(100*rate/cfg.Peak, 1))
	}

	// Blocking ablation: the same triangle without and with the blocked
	// driver.
	m, err := harness.Best(cfg.Reps, triples, func() error {
		baselines.Vector{Threads: 1}.R2Sum(g)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rateRow("unblocked vector kernel (OmegaPlus-like)", harness.F(m.Elapsed.Seconds(), 3), m.TriplesPerSecond())
	c := make([]uint32, n*n)
	m, err = harness.Best(cfg.Reps, triples, func() error {
		clear(c)
		return blis.Syrk(blis.Config{Threads: 1}, g, c, n, false)
	})
	if err != nil {
		return nil, err
	}
	rateRow(driverRowPrefix+blis.ReadStats().Variant, harness.F(m.Elapsed.Seconds(), 3), m.TriplesPerSecond())

	// Register-shape ablation: each kernel alone, no driver around it.
	shapes := kernel.Fixed
	if kernel.Default.Lanes > 1 {
		shapes = append(shapes[:len(shapes):len(shapes)], kernel.Default)
	}
	for _, kn := range shapes {
		rateRow(fmt.Sprintf("micro-kernel %s alone, L1-resident panels", kn.Name), "-", calibrateKernel(kn, cfg.CalibrationTime))
	}
	return tbl, nil
}

// driverRowPrefix labels Ablation's blocked-driver row; the variant the
// driver reported for the row's calls completes it.
const driverRowPrefix = "blocked GEMM, default config: "

// PopcountAblation compares the popcount implementations of [17, 18]: the
// hardware instruction versus SWAR, table lookups, and Harley–Seal, on the
// AND-count inner loop.
func PopcountAblation(cfg Config) (*harness.Table, error) {
	cfg = cfg.normalize()
	words := 1 << 16
	a := randomMatrix(11, 1, words*64).SNP(0)
	b := randomMatrix(13, 1, words*64).SNP(0)
	tbl := &harness.Table{
		Title:   "Popcount implementation ablation (AND-count over 64 KiW)",
		Headers: []string{"counter", "time/pass (ms)", "Gwords/s", "vs hardware"},
	}
	var hwSec float64
	type entry struct {
		name string
		fn   func() int
	}
	entries := []entry{
		{"hardware POPCNT", func() int { return popcount.AndCount(a, b) }},
		{"SWAR", func() int { return popcount.AndCountWith(popcount.SWAR, a, b) }},
		{"8-bit lookup", func() int { return popcount.AndCountWith(popcount.Lookup8, a, b) }},
		{"16-bit lookup", func() int { return popcount.AndCountWith(popcount.Lookup16, a, b) }},
	}
	sink := 0
	for _, e := range entries {
		m, err := harness.Best(cfg.Reps, int64(words), func() error {
			sink += e.fn()
			return nil
		})
		if err != nil {
			return nil, err
		}
		sec := m.Elapsed.Seconds()
		if e.name == "hardware POPCNT" {
			hwSec = sec
		}
		tbl.AddRow(e.name,
			harness.F(sec*1e3, 3),
			harness.F(float64(words)/sec/1e9, 2),
			harness.F(sec/hwSec, 2)+"x")
	}
	_ = sink
	return tbl, nil
}

// Banded demonstrates the chromosome-scale banded scan: LD restricted to
// pairs within a window (PLINK --ld-window), whose cost is linear in n
// rather than quadratic. The table contrasts the full triangle with two
// band widths on the same matrix.
func Banded(cfg Config) (*harness.Table, error) {
	cfg = cfg.normalize()
	n := max(20000/cfg.Scale, 256)
	k := max(4096/cfg.Scale, 128)
	g := randomMatrix(555, n, k)
	tbl := &harness.Table{
		Title:   fmt.Sprintf("Banded LD scan, %d SNPs × %d samples (single thread)", n, k),
		Headers: []string{"scan", "pairs", "time (s)", "MLD/s"},
	}
	addRow := func(name string, fn func() (int64, error)) error {
		var pairs int64
		m, err := harness.Time(0, func() error {
			var err error
			pairs, err = fn()
			return err
		})
		if err != nil {
			return err
		}
		tbl.AddRow(name, fmt.Sprint(pairs),
			harness.F(m.Elapsed.Seconds(), 3),
			harness.F(float64(pairs)/m.Elapsed.Seconds()/1e6, 2))
		return nil
	}
	opt := core.Options{Blis: blis.Config{Threads: 1}}
	if err := addRow("full triangle", func() (int64, error) {
		_, p, err := core.SumR2(g, core.StreamOptions{Options: opt})
		return p, err
	}); err != nil {
		return nil, err
	}
	for _, band := range []int{500, 100} {
		band := band
		if err := addRow(fmt.Sprintf("band ±%d SNPs", band), func() (int64, error) {
			_, p, err := core.BandedSumR2(g, core.BandOptions{Options: opt, Band: band})
			return p, err
		}); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}
