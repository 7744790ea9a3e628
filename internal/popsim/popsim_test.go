package popsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ldgemm/internal/core"
	"ldgemm/internal/stats"
)

func TestMosaicDimensionsAndPolymorphism(t *testing.T) {
	m, err := Mosaic(200, 150, MosaicConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.SNPs != 200 || m.Samples != 150 {
		t.Fatalf("dims %dx%d", m.SNPs, m.Samples)
	}
	if err := m.ValidatePadding(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.SNPs; i++ {
		c := m.DerivedCount(i)
		if c == 0 || c == m.Samples {
			t.Fatalf("SNP %d monomorphic (count %d)", i, c)
		}
	}
}

func TestMosaicDeterministic(t *testing.T) {
	a, err := Mosaic(50, 40, MosaicConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mosaic(50, 40, MosaicConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("same seed produced different matrices")
	}
	c, err := Mosaic(50, 40, MosaicConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Fatal("different seeds produced identical matrices")
	}
}

func TestMosaicErrors(t *testing.T) {
	if _, err := Mosaic(10, 0, MosaicConfig{}); err == nil {
		t.Fatal("zero samples accepted")
	}
	if _, err := Mosaic(10, 5, MosaicConfig{Founders: 1}); err == nil {
		t.Fatal("single founder accepted")
	}
	if _, err := Mosaic(10, 5, MosaicConfig{SwitchRate: 2}); err == nil {
		t.Fatal("switch rate > 1 accepted")
	}
	if _, err := Mosaic(10, 5, MosaicConfig{MutationRate: -0.1}); err == nil {
		t.Fatal("negative mutation rate accepted")
	}
}

// TestMosaicLDDecay checks the generator actually produces LD structure:
// adjacent SNPs must be far more correlated than distant ones on average.
func TestMosaicLDDecay(t *testing.T) {
	m, err := Mosaic(400, 300, MosaicConfig{Seed: 3, SwitchRate: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	var near, far []float64
	for i := 0; i+1 < m.SNPs; i += 7 {
		near = append(near, core.PairLD(m, i, i+1).R2)
		if i+200 < m.SNPs {
			far = append(far, core.PairLD(m, i, i+200).R2)
		}
	}
	mn, mf := stats.Mean(near), stats.Mean(far)
	// Most pairs involve rare variants (neutral SFS), so the absolute mean
	// is modest; the signature is the near/far ratio.
	if mn < 3*mf || mn < 0.02 {
		t.Fatalf("no LD decay: mean near r² %v, far %v", mn, mf)
	}
}

// TestMosaicSFSShape checks the frequency spectrum is skewed toward rare
// variants as the neutral expectation demands (monotone-ish decay).
func TestMosaicSFSShape(t *testing.T) {
	m, err := Mosaic(2000, 100, MosaicConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, m.SNPs)
	for i := range counts {
		counts[i] = m.DerivedCount(i)
	}
	sfs := stats.SFS(counts, m.Samples, true)
	lowBand := sfs[1] + sfs[2] + sfs[3] + sfs[4] + sfs[5]
	highBand := 0
	for f := len(sfs) - 5; f < len(sfs); f++ {
		highBand += sfs[f]
	}
	if lowBand <= 2*highBand {
		t.Fatalf("SFS not skewed to rare variants: low %d vs high %d", lowBand, highBand)
	}
}

func TestDatasetDims(t *testing.T) {
	for _, c := range []struct {
		d        Dataset
		snps, sm int
	}{{DatasetA, 10000, 2504}, {DatasetB, 10000, 10000}, {DatasetC, 10000, 100000}} {
		snps, samples := c.d.Dims()
		if snps != c.snps || samples != c.sm {
			t.Fatalf("%v dims %dx%d", c.d, snps, samples)
		}
		if c.d.String() == "" {
			t.Fatal("empty String()")
		}
	}
}

func TestDatasetGenerateScaled(t *testing.T) {
	m, err := DatasetA.Generate(100)
	if err != nil {
		t.Fatal(err)
	}
	if m.SNPs != 100 || m.Samples != 25 {
		t.Fatalf("scaled dims %dx%d", m.SNPs, m.Samples)
	}
	if _, err := DatasetA.Generate(0); err == nil {
		t.Fatal("scale 0 accepted")
	}
}

func TestGeometricSkipDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const p = 0.1
	const n = 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(geometricSkip(rng, p))
	}
	mean := sum / n
	want := (1 - p) / p // mean failures before success
	if math.Abs(mean-want) > 0.5 {
		t.Fatalf("geometric mean %v, want ≈%v", mean, want)
	}
	if geometricSkip(rng, 1) != 0 {
		t.Fatal("p=1 should skip 0")
	}
	if geometricSkip(rng, 0) < 1<<40 {
		t.Fatal("p=0 should be effectively infinite")
	}
}

// TestGeometricSkipNever: a rate so small that 1−p rounds to 1 makes every
// gap −Inf before conversion; it is the same "never" p = 0 draws, not
// whatever int(−Inf) is on the host, and it still consumes its draw.
func TestGeometricSkipNever(t *testing.T) {
	rng, twin := rand.New(rand.NewSource(6)), rand.New(rand.NewSource(6))
	for _, p := range []float64{1e-17, 1e-300, math.SmallestNonzeroFloat64} {
		if got := geometricSkip(rng, p); got != math.MaxInt/2 {
			t.Fatalf("p=%g: skip %d, want MaxInt/2", p, got)
		}
		twin.Float64()
	}
	if rng.Int63() != twin.Int63() {
		t.Fatal("a never-skip did not consume exactly one draw")
	}
}

func TestApplySweepSignature(t *testing.T) {
	m, err := Mosaic(300, 200, MosaicConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	before := m.Clone()
	cfg := SweepConfig{Seed: 12, CenterSNP: 150, CarrierFraction: 0.8, Radius: 60}
	if err := ApplySweep(m, cfg); err != nil {
		t.Fatal(err)
	}
	if m.Equal(before) {
		t.Fatal("sweep changed nothing")
	}
	// Diversity (mean minor-allele frequency) near the center must drop.
	maf := func(mm interface{ DerivedCount(int) int }, i, samples int) float64 {
		f := float64(mm.DerivedCount(i)) / float64(samples)
		return math.Min(f, 1-f)
	}
	var nearBefore, nearAfter float64
	for i := 130; i < 170; i++ {
		nearBefore += maf(before, i, 200)
		nearAfter += maf(m, i, 200)
	}
	if nearAfter >= nearBefore {
		t.Fatalf("no diversity reduction at sweep center: %v vs %v", nearAfter, nearBefore)
	}
	// All SNPs must remain polymorphic (post SNP-calling invariant).
	for i := 0; i < m.SNPs; i++ {
		c := m.DerivedCount(i)
		if c == 0 || c == m.Samples {
			t.Fatalf("SNP %d monomorphic after sweep", i)
		}
	}
}

func TestApplySweepErrors(t *testing.T) {
	m, _ := Mosaic(50, 30, MosaicConfig{Seed: 1})
	if err := ApplySweep(m, SweepConfig{CenterSNP: 60}); err == nil {
		t.Fatal("out-of-range center accepted")
	}
	if err := ApplySweep(m, SweepConfig{CenterSNP: 10, CarrierFraction: 1.5}); err == nil {
		t.Fatal("carrier fraction > 1 accepted")
	}
	if err := ApplySweep(m, SweepConfig{CenterSNP: 10, Radius: -1}); err == nil {
		t.Fatal("negative radius accepted")
	}
}

// Property: Mosaic output is always polymorphic at every SNP and padding
// stays clean for arbitrary small shapes.
func TestQuickMosaicInvariants(t *testing.T) {
	f := func(seed int64, n8, s8 uint8) bool {
		snps := int(n8%60) + 1
		samples := int(s8%90) + 2
		m, err := Mosaic(snps, samples, MosaicConfig{Seed: seed})
		if err != nil {
			return false
		}
		if m.ValidatePadding() != nil {
			return false
		}
		for i := 0; i < snps; i++ {
			c := m.DerivedCount(i)
			if c == 0 || c == samples {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
