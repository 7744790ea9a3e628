package popsim

import (
	"math/bits"

	"ldgemm/internal/bitmat"
)

// The word-sliced fill both generators share. A sample's copying chain
// is a run of events — a switch to a new founder, a mutation flip — so a
// block of 64 samples (one output word per SNP) is filled by drawing each
// sample's events in its generator's fixed order (advance), bucketing the
// block's events by SNP with a counting sort, and sweeping the SNPs once
// with one 64-bit sample mask per founder: a SNP's word is the OR of the
// masks of the founders carrying its derived allele, XOR the block's
// mutation flips at that SNP. The draw order is what pins the output bits
// (golden_test.go); the fill itself draws nothing.

// drawer is the random source of a sample's copying chain: Mosaic's one
// *rand.Rand, or a stream sample's own splitmix64.
type drawer interface {
	Intn(n int) int
	Float64() float64
}

// chain is one sample's copying state: the founder it copies and the SNPs
// of its next switch and next mutation.
type chain struct {
	cur                 int32
	nextSwitch, nextMut int
}

// startChain draws a chain's opening state: founder, switch gap, then
// mutation gap.
func startChain(r drawer, cfg MosaicConfig) chain {
	cur := int32(r.Intn(cfg.Founders))
	return chain{
		cur:        cur,
		nextSwitch: geometricSkip(r, cfg.SwitchRate),
		nextMut:    geometricSkip(r, cfg.MutationRate),
	}
}

// event is one switch or mutation of a block's sample: row is the SNP
// within the window; code packs the sample's bit (low 6 bits), the
// mutation flag (bit 6) and a switch's new founder (above).
type event struct {
	row  int
	code uint64
}

const mutationFlag = 1 << 6

// groupWords is how many blocks fill sweeps before writing their words
// out: eight words are one 64-byte line of an output row, so the writes
// to a wide SNP-major matrix go a cache line, not a word, at a time. A
// row of at most groupWords words is its own group, written in place.
const groupWords = 8

// filler is the scratch of the word-sliced fill, reused across blocks.
type filler struct {
	masks  []uint64  // per founder: the block's samples copying it
	cur    [64]int32 // per block sample: the founder it copies
	events []event   // the block's events, sample-major
	ends   []int     // per row: its bucket's end in sorted
	sorted []uint64  // the block's event codes, by row
	tile   []uint64  // per row: a group's words, for rows wider than a group
}

func newFiller(founders int) *filler {
	return &filler{masks: make([]uint64, founders)}
}

// fill writes every word of m, the window of SNPs [lo, lo+m.SNPs), whose
// founder alleles are founders (one row per row of m). Samples go 64 to a
// block in sample order: next(s) returns sample s's random source and
// its chain as of SNP lo, which fill advances to the window's end.
func (f *filler) fill(m, founders *bitmat.Matrix, lo int, cfg MosaicConfig, next func(s int) (drawer, *chain)) {
	rows := m.SNPs
	dst, stride := m.Data, m.Words
	tiled := m.Words > groupWords
	if tiled {
		if cap(f.tile) < rows*groupWords {
			f.tile = make([]uint64, rows*groupWords)
		}
		dst, stride = f.tile[:rows*groupWords], groupWords
	}
	for w0 := 0; w0 < m.Words; w0 += groupWords {
		nw := min(groupWords, m.Words-w0)
		for b := 0; b < nw; b++ {
			base := (w0 + b) * bitmat.WordBits
			n := min(bitmat.WordBits, m.Samples-base)
			f.events = f.events[:0]
			for j := 0; j < n; j++ {
				r, c := next(base + j)
				f.cur[j] = c.cur
				f.advance(r, c, j, lo, lo+rows, cfg)
			}
			f.sweep(dst, stride, b, founders, n)
		}
		if tiled {
			for i := 0; i < rows; i++ {
				copy(m.Data[i*m.Words+w0:][:nw], dst[i*groupWords:][:nw])
			}
		}
	}
}

// advance draws sample j's events in SNPs [lo, hi) from r, in SNP order:
// at an event SNP the switch (new founder, then the next switch gap)
// before the mutation (the next mutation gap).
func (f *filler) advance(r drawer, c *chain, j, lo, hi int, cfg MosaicConfig) {
	for {
		i := min(c.nextSwitch, c.nextMut)
		if i >= hi {
			return
		}
		if i == c.nextSwitch {
			c.cur = int32(r.Intn(cfg.Founders))
			c.nextSwitch = i + 1 + geometricSkip(r, cfg.SwitchRate)
			f.events = append(f.events, event{i - lo, uint64(j) | uint64(c.cur)<<7})
		}
		if i == c.nextMut {
			c.nextMut = i + 1 + geometricSkip(r, cfg.MutationRate)
			f.events = append(f.events, event{i - lo, uint64(j) | mutationFlag})
		}
	}
}

// sweep writes the word of row i of the group's block b to
// dst[i*stride+b], from the block's n samples: their opening founders
// are f.cur[:n], their events what advance drew into f.events.
func (f *filler) sweep(dst []uint64, stride, b int, founders *bitmat.Matrix, n int) {
	rows := founders.SNPs
	if cap(f.ends) < rows {
		f.ends = make([]int, rows)
	}
	ends := f.ends[:rows]
	clear(ends)
	for _, e := range f.events {
		ends[e.row]++
	}
	sum := 0
	for i, c := range ends {
		ends[i] = sum
		sum += c
	}
	if cap(f.sorted) < sum {
		f.sorted = make([]uint64, sum)
	}
	sorted := f.sorted[:sum]
	for _, e := range f.events {
		sorted[ends[e.row]] = e.code
		ends[e.row]++
	}

	clear(f.masks)
	for j, c := range f.cur[:n] {
		f.masks[c] |= 1 << j
	}
	lo := 0
	for i, hi := range ends {
		var flip uint64
		for _, code := range sorted[lo:hi] {
			bit := uint64(1) << (code & 63)
			if code&mutationFlag != 0 {
				flip ^= bit
				continue
			}
			j, to := code&63, int32(code>>7)
			f.masks[f.cur[j]] &^= bit
			f.masks[to] |= bit
			f.cur[j] = to
		}
		lo = hi
		var word uint64
		for k, fw := range founders.SNP(i) {
			for ; fw != 0; fw &= fw - 1 {
				word |= f.masks[k*64+bits.TrailingZeros64(fw)]
			}
		}
		dst[i*stride+b] = word ^ flip
	}
}
