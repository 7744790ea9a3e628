package popsim

import (
	"fmt"
	"math/rand"

	"ldgemm/internal/bitmat"
)

// Streaming mosaic generation. Mosaic materializes the full snps×samples
// matrix, which caps dataset size at RAM; MosaicStream emits the same
// copying model a SNP window at a time, so arbitrarily long chromosomes
// can be written straight into a .ldbm container with O(window + samples)
// memory. The per-sample founder-copying chains advance in SNP order with
// one private splitmix64 generator each (a shared rand.Rand would cost
// ~5 KiB of state per sample and force a fixed sample-major order), which
// makes the output window-size invariant: any window decomposition of the
// same (dims, config) yields bit-identical SNP rows. The trade-off, noted
// on the constructor, is that the stream is NOT bit-identical to Mosaic,
// whose single generator interleaves its draws sample-major.

// splitmix64 is an 8-byte-state PRNG (Steele et al.'s SplitMix64), strong
// enough for simulation and cheap enough to give every sample its own.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1) with 53 random bits.
func (s *splitmix64) Float64() float64 { return float64(s.next()>>11) / (1 << 53) }

// Intn returns a uniform draw in [0, n). The modulo bias is ≤ n/2⁶⁴ —
// irrelevant for simulation.
func (s *splitmix64) Intn(n int) int { return int(s.next() % uint64(n)) }

// MosaicStream generates a mosaic dataset in SNP-window increments.
type MosaicStream struct {
	snps    int
	samples int
	cfg     MosaicConfig

	// Founder alleles are drawn per SNP from a single sequential
	// generator, exactly as Mosaic draws them.
	founderRng *rand.Rand
	sfs        []float64
	perm       []int

	// Per-sample copying-chain state, advanced window by window by the
	// word-sliced fill (whose scratch is reused across windows).
	rngs   []splitmix64
	chains []chain
	fill   *filler

	// fixRng resolves monomorphic SNPs; it only advances on such SNPs
	// (in SNP order), so the fix-up is window-size invariant too.
	fixRng splitmix64

	pos      int
	founders *bitmat.Matrix
	buf      *bitmat.Matrix
}

// NewMosaicStream prepares a streaming generator for a snps×samples
// mosaic dataset. Output is deterministic in (snps, samples, cfg) and
// invariant under the window sizes passed to Next — but not bit-identical
// to Mosaic, which interleaves its random draws differently.
func NewMosaicStream(snps, samples int, cfg MosaicConfig) (*MosaicStream, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if snps < 0 || samples < 1 {
		return nil, fmt.Errorf("popsim: invalid dimensions %dx%d", snps, samples)
	}
	s := &MosaicStream{
		snps: snps, samples: samples, cfg: cfg,
		founderRng: rand.New(rand.NewSource(cfg.Seed)),
		sfs:        cumulativeNeutralSFS(cfg.Founders),
		perm:       make([]int, cfg.Founders),
		rngs:       make([]splitmix64, samples),
		chains:     make([]chain, samples),
		fill:       newFiller(cfg.Founders),
		fixRng:     splitmix64{state: uint64(cfg.Seed) ^ 0xa0761d6478bd642f},
	}
	for i := range s.perm {
		s.perm[i] = i
	}
	for smp := range s.rngs {
		// Decorrelate the per-sample seeds through one splitmix step so
		// adjacent samples don't share low-entropy starting states.
		seed := splitmix64{state: uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(smp)}
		s.rngs[smp] = splitmix64{state: seed.next()}
		s.chains[smp] = startChain(&s.rngs[smp], cfg)
	}
	return s, nil
}

// SNPs and Samples return the stream dimensions; Pos the next SNP index.
func (s *MosaicStream) SNPs() int    { return s.snps }
func (s *MosaicStream) Samples() int { return s.samples }
func (s *MosaicStream) Pos() int     { return s.pos }

// Next generates the next min(rows, remaining) SNPs and returns them as a
// rows×samples window (reused across calls — callers must not retain it),
// or nil once the stream is exhausted. Every emitted SNP is polymorphic,
// matching Mosaic's guarantee.
func (s *MosaicStream) Next(rows int) (*bitmat.Matrix, error) {
	if rows < 1 {
		return nil, fmt.Errorf("popsim: invalid window %d", rows)
	}
	if s.pos >= s.snps {
		return nil, nil
	}
	lo := s.pos
	hi := min(lo+rows, s.snps)
	rows = hi - lo

	// Founder alleles for the window, drawn per SNP exactly as Mosaic.
	if s.founders == nil || s.founders.SNPs < rows {
		s.founders = bitmat.New(rows, s.cfg.Founders)
		s.buf = bitmat.New(rows, s.samples)
	}
	founders := s.founders.Slice(0, rows)
	clear(founders.Data)
	for i := 0; i < rows; i++ {
		c := sampleSFS(s.founderRng, s.sfs)
		s.founderRng.Shuffle(len(s.perm), func(a, b int) { s.perm[a], s.perm[b] = s.perm[b], s.perm[a] })
		for _, f := range s.perm[:c] {
			founders.SetBit(i, f)
		}
	}

	m := s.buf.Slice(0, rows)
	s.fill.fill(m, founders, lo, s.cfg, func(smp int) (drawer, *chain) {
		return &s.rngs[smp], &s.chains[smp]
	})

	for i := 0; i < rows; i++ {
		switch m.DerivedCount(i) {
		case 0:
			m.SetBit(i, s.fixRng.Intn(s.samples))
		case s.samples:
			m.ClearBit(i, s.fixRng.Intn(s.samples))
		}
	}
	s.pos = hi
	return m, nil
}

// MosaicToLDBM streams a full mosaic dataset into a .ldbm container at
// path, windowRows SNPs at a time (default 1024) — the genome-scale
// datagen path whose memory never depends on snps.
func MosaicToLDBM(path string, snps, samples int, cfg MosaicConfig, windowRows int) error {
	if windowRows < 1 {
		windowRows = 1024
	}
	s, err := NewMosaicStream(snps, samples, cfg)
	if err != nil {
		return err
	}
	w, err := bitmat.CreateFile(path, snps, samples)
	if err != nil {
		return err
	}
	for {
		m, err := s.Next(windowRows)
		if err != nil {
			w.Abort()
			return err
		}
		if m == nil {
			break
		}
		if err := w.WritePanel(m); err != nil {
			w.Abort()
			return err
		}
	}
	return w.Close()
}
