// Package popsim generates synthetic genomic datasets with realistic
// allele-frequency spectra and LD structure.
//
// The paper evaluates on three datasets: A is a 10,000-SNP subset of 1000
// Genomes chromosome 1 (2,504 humans); B and C are simulated with 10,000
// and 100,000 sequences. The raw 1000 Genomes data is not available
// offline, so dataset A is substituted by the mosaic (Li–Stephens-style
// copying) model below, calibrated to a neutral 1/i site-frequency
// spectrum; B and C use the same generator at the paper's dimensions
// (DESIGN.md records the substitution). A sweep overlay injects the
// reduced-diversity/high-flank-LD signature that the ω statistic detects.
package popsim

import (
	"fmt"
	"math"
	"math/rand"

	"ldgemm/internal/bitmat"
)

// MosaicConfig parameterizes the copying-model generator.
type MosaicConfig struct {
	// Seed makes the dataset reproducible.
	Seed int64
	// Founders is the number of founder haplotypes samples copy from
	// (default 32). Fewer founders means stronger LD.
	Founders int
	// SwitchRate is the per-SNP probability that a sample switches to a
	// different random founder (default 0.02); it sets LD decay length
	// (≈1/SwitchRate SNPs).
	SwitchRate float64
	// MutationRate is the per-site, per-sample flip probability adding
	// low-frequency variation on top of the founder mosaic (default 0.002).
	MutationRate float64
}

func (c MosaicConfig) normalize() (MosaicConfig, error) {
	if c.Founders == 0 {
		c.Founders = 32
	}
	if c.SwitchRate == 0 {
		c.SwitchRate = 0.02
	}
	if c.MutationRate == 0 {
		c.MutationRate = 0.002
	}
	if c.Founders < 2 {
		return c, fmt.Errorf("popsim: need at least 2 founders, have %d", c.Founders)
	}
	if c.SwitchRate <= 0 || c.SwitchRate > 1 {
		return c, fmt.Errorf("popsim: invalid switch rate %v", c.SwitchRate)
	}
	if c.MutationRate < 0 || c.MutationRate > 1 {
		return c, fmt.Errorf("popsim: invalid mutation rate %v", c.MutationRate)
	}
	return c, nil
}

// Mosaic generates a snps×samples binary matrix. Every SNP is guaranteed
// polymorphic (a SNP-calling step would discard monomorphic sites, so the
// generator never emits them).
func Mosaic(snps, samples int, cfg MosaicConfig) (*bitmat.Matrix, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if snps < 0 || samples < 1 {
		return nil, fmt.Errorf("popsim: invalid dimensions %dx%d", snps, samples)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Founder alleles: per SNP, a derived count c drawn from the neutral
	// spectrum P(c) ∝ 1/c over 1..F−1, assigned to a random founder subset.
	founders := bitmat.New(snps, cfg.Founders)
	sfs := cumulativeNeutralSFS(cfg.Founders)
	perm := make([]int, cfg.Founders)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < snps; i++ {
		c := sampleSFS(rng, sfs)
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		for _, f := range perm[:c] {
			founders.SetBit(i, f)
		}
	}

	// Copying chains, 64 samples a word, sample-major: each sample's
	// founder, gaps and events are drawn before the next sample's.
	m := bitmat.New(snps, samples)
	var c chain
	newFiller(cfg.Founders).fill(m, founders, 0, cfg, func(int) (drawer, *chain) {
		c = startChain(rng, cfg)
		return rng, &c
	})
	ensurePolymorphic(rng, m)
	return m, nil
}

// cumulativeNeutralSFS returns the cumulative distribution over derived
// counts 1..F−1 with P(c) ∝ 1/c.
func cumulativeNeutralSFS(founders int) []float64 {
	cdf := make([]float64, founders-1)
	sum := 0.0
	for c := 1; c < founders; c++ {
		sum += 1 / float64(c)
		cdf[c-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// sampleSFS draws a derived count 1..len(cdf) from the cumulative spectrum.
func sampleSFS(rng *rand.Rand, cdf []float64) int {
	u := rng.Float64()
	for i, p := range cdf {
		if u <= p {
			return i + 1
		}
	}
	return len(cdf)
}

// geometricSkip returns the number of Bernoulli(p) failures before the
// next success, i.e. the gap to the next rare event. Sampling gaps instead
// of testing every position makes rare-event streams O(events), not O(n).
// An event that never comes is MaxInt/2 SNPs away, so a SNP index plus a
// gap never overflows: for p ≤ 0, and for a gap too large to be an int —
// among them every draw at a p so small that 1−p rounds to 1, where the
// quotient is −Inf.
func geometricSkip(rng drawer, p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return math.MaxInt / 2
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	skip := math.Log(u) / math.Log(1-p)
	if !(skip >= 0 && skip < math.MaxInt/2) {
		return math.MaxInt / 2
	}
	return int(skip)
}

// ensurePolymorphic flips one random sample at any monomorphic SNP.
func ensurePolymorphic(rng *rand.Rand, m *bitmat.Matrix) {
	for i := 0; i < m.SNPs; i++ {
		switch m.DerivedCount(i) {
		case 0:
			m.SetBit(i, rng.Intn(m.Samples))
		case m.Samples:
			m.ClearBit(i, rng.Intn(m.Samples))
		}
	}
}

// Dataset names the paper's three evaluation datasets.
type Dataset int

const (
	// DatasetA substitutes the 1000 Genomes chr1 subset: 10,000 SNPs ×
	// 2,504 sequences.
	DatasetA Dataset = iota
	// DatasetB is the simulated 10,000 SNPs × 10,000 sequences input.
	DatasetB
	// DatasetC is the simulated 10,000 SNPs × 100,000 sequences input.
	DatasetC
)

// Dims returns the paper dimensions of the dataset.
func (d Dataset) Dims() (snps, samples int) {
	switch d {
	case DatasetA:
		return 10000, 2504
	case DatasetB:
		return 10000, 10000
	case DatasetC:
		return 10000, 100000
	default:
		return 0, 0
	}
}

// String implements fmt.Stringer.
func (d Dataset) String() string {
	switch d {
	case DatasetA:
		return "A (10,000 SNPs × 2,504 sequences, 1000G-chr1 substitute)"
	case DatasetB:
		return "B (10,000 SNPs × 10,000 sequences, simulated)"
	case DatasetC:
		return "C (10,000 SNPs × 100,000 sequences, simulated)"
	default:
		return fmt.Sprintf("Dataset(%d)", int(d))
	}
}

// Generate builds the dataset, with both dimensions divided by scale
// (scale 1 = the paper's full size) and floored at 16 so scaled-down runs
// stay well-formed.
func (d Dataset) Generate(scale int) (*bitmat.Matrix, error) {
	if scale < 1 {
		return nil, fmt.Errorf("popsim: invalid scale %d", scale)
	}
	snps, samples := d.Dims()
	snps = max(snps/scale, 16)
	samples = max(samples/scale, 16)
	return Mosaic(snps, samples, MosaicConfig{Seed: 1000 + int64(d)})
}
