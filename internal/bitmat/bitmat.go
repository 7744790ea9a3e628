// Package bitmat implements the bit-packed binary genomic matrix that all
// LD kernels in this repository operate on.
//
// Following the storage scheme of the paper (Fig. 2, after Alachiotis &
// Weisz, FPGA'16), a genomic matrix G has one column per SNP and one row per
// sample. Each SNP column is stored as a run of consecutive 64-bit words
// (little-endian bit order within a word: sample 0 is bit 0 of word 0). When
// the number of samples is not a multiple of 64, the SNP is padded with zero
// bits so that every SNP occupies the same whole number of words. The zero
// padding is an invariant: AND+POPCNT kernels rely on padding bits never
// contributing to a count.
package bitmat

import (
	"fmt"

	"ldgemm/internal/popcount"
)

// WordBits is the number of sample bits packed per storage word.
const WordBits = 64

// Matrix is a bit-packed binary matrix of SNPs (columns) by samples (rows).
// A set bit denotes the derived allele (a mutation) under the infinite
// sites model; a clear bit denotes the ancestral allele.
//
// Storage is SNP-major: SNP i occupies Data[i*Words : (i+1)*Words].
type Matrix struct {
	// SNPs is the number of SNP columns (the n dimension of GᵀG).
	SNPs int
	// Samples is the number of sequences/rows (the k dimension).
	Samples int
	// Words is the number of 64-bit words per SNP: ceil(Samples/64).
	Words int
	// Data holds SNPs*Words words, SNP-major.
	Data []uint64
}

// WordsFor returns the number of 64-bit words needed for the given number
// of samples.
func WordsFor(samples int) int {
	return (samples + WordBits - 1) / WordBits
}

// New returns a zeroed matrix with the given dimensions.
// It panics if either dimension is negative or snps is zero with
// a negative sample count; a zero-SNP or zero-sample matrix is valid.
func New(snps, samples int) *Matrix {
	if snps < 0 || samples < 0 {
		panic(fmt.Sprintf("bitmat: negative dimension %dx%d", snps, samples))
	}
	w := WordsFor(samples)
	return &Matrix{
		SNPs:    snps,
		Samples: samples,
		Words:   w,
		Data:    make([]uint64, snps*w),
	}
}

// FromWords wraps an existing word slice as a Matrix without copying.
// len(data) must equal snps*WordsFor(samples).
func FromWords(snps, samples int, data []uint64) (*Matrix, error) {
	w := WordsFor(samples)
	if len(data) != snps*w {
		return nil, fmt.Errorf("bitmat: FromWords: have %d words, need %d (snps=%d samples=%d)",
			len(data), snps*w, snps, samples)
	}
	return &Matrix{SNPs: snps, Samples: samples, Words: w, Data: data}, nil
}

// FromRows builds a matrix from sample-major rows: rows[s][i] is the state
// of sample s at SNP i. Any nonzero byte is treated as the derived state.
// All rows must have equal length.
func FromRows(rows [][]byte) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	snps := len(rows[0])
	for s, r := range rows {
		if len(r) != snps {
			return nil, fmt.Errorf("bitmat: FromRows: row %d has %d entries, want %d", s, len(r), snps)
		}
	}
	m := New(snps, len(rows))
	for s, r := range rows {
		for i, v := range r {
			if v != 0 {
				m.SetBit(i, s)
			}
		}
	}
	return m, nil
}

// FromColumns builds a matrix from SNP-major columns: cols[i][s] is the
// state of sample s at SNP i. Any nonzero byte is the derived state.
func FromColumns(cols [][]byte) (*Matrix, error) {
	if len(cols) == 0 {
		return New(0, 0), nil
	}
	samples := len(cols[0])
	for i, c := range cols {
		if len(c) != samples {
			return nil, fmt.Errorf("bitmat: FromColumns: column %d has %d entries, want %d", i, len(c), samples)
		}
	}
	m := New(len(cols), samples)
	for i, c := range cols {
		for s, v := range c {
			if v != 0 {
				m.SetBit(i, s)
			}
		}
	}
	return m, nil
}

// SNP returns the word slice backing SNP i. The returned slice aliases the
// matrix; mutating it mutates the matrix.
func (m *Matrix) SNP(i int) []uint64 {
	return m.Data[i*m.Words : (i+1)*m.Words : (i+1)*m.Words]
}

// Bit reports the state of sample s at SNP i.
func (m *Matrix) Bit(snp, sample int) bool {
	m.check(snp, sample)
	w := m.Data[snp*m.Words+sample/WordBits]
	return w>>(uint(sample)%WordBits)&1 == 1
}

// SetBit sets sample s at SNP i to the derived state.
func (m *Matrix) SetBit(snp, sample int) {
	m.check(snp, sample)
	m.Data[snp*m.Words+sample/WordBits] |= 1 << (uint(sample) % WordBits)
}

// ClearBit sets sample s at SNP i to the ancestral state.
func (m *Matrix) ClearBit(snp, sample int) {
	m.check(snp, sample)
	m.Data[snp*m.Words+sample/WordBits] &^= 1 << (uint(sample) % WordBits)
}

func (m *Matrix) check(snp, sample int) {
	if snp < 0 || snp >= m.SNPs || sample < 0 || sample >= m.Samples {
		panic(fmt.Sprintf("bitmat: index (%d,%d) out of range %dx%d", snp, sample, m.SNPs, m.Samples))
	}
}

// DerivedCount returns the number of derived alleles (set bits) in SNP i.
// This is the inner product sᵢᵀsᵢ of Eq. 3 in the paper, and it is counted
// as one: through the host's widest popcount (popcount.AndCountVector),
// about three times the word-at-a-time loop at 2048 samples, which a scan's
// allele pass runs once per SNP it reads.
func (m *Matrix) DerivedCount(i int) int {
	s := m.SNP(i)
	return popcount.AndCountVector(s, s)
}

// AlleleFrequency returns the derived-allele frequency of SNP i
// (Eq. 3: P_i = sᵢᵀsᵢ / Nseq).
func (m *Matrix) AlleleFrequency(i int) float64 {
	if m.Samples == 0 {
		return 0
	}
	return float64(m.DerivedCount(i)) / float64(m.Samples)
}

// PadMask returns the word mask that keeps only valid sample bits in the
// final word of a SNP. For Samples%64 == 0 the mask is all ones.
func (m *Matrix) PadMask() uint64 {
	r := uint(m.Samples % WordBits)
	if r == 0 {
		return ^uint64(0)
	}
	return (uint64(1) << r) - 1
}

// ValidatePadding checks the zero-padding invariant on every SNP and
// returns an error naming the first violating SNP, or nil.
func (m *Matrix) ValidatePadding() error {
	if m.Words == 0 {
		return nil
	}
	mask := m.PadMask()
	if mask == ^uint64(0) {
		return nil
	}
	for i := 0; i < m.SNPs; i++ {
		last := m.Data[i*m.Words+m.Words-1]
		if last&^mask != 0 {
			return fmt.Errorf("bitmat: SNP %d has nonzero padding bits (last word %#x, mask %#x)", i, last, mask)
		}
	}
	return nil
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	d := make([]uint64, len(m.Data))
	copy(d, m.Data)
	return &Matrix{SNPs: m.SNPs, Samples: m.Samples, Words: m.Words, Data: d}
}

// Slice returns a new matrix that shares storage with m and exposes SNPs
// [lo, hi). It panics on an invalid range.
func (m *Matrix) Slice(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.SNPs {
		panic(fmt.Sprintf("bitmat: Slice[%d:%d] of %d SNPs", lo, hi, m.SNPs))
	}
	return &Matrix{
		SNPs:    hi - lo,
		Samples: m.Samples,
		Words:   m.Words,
		Data:    m.Data[lo*m.Words : hi*m.Words],
	}
}

// Append copies all SNPs of other (which must have the same sample count)
// onto the end of m and returns the combined matrix. Neither input is
// modified.
func (m *Matrix) Append(other *Matrix) (*Matrix, error) {
	if m.Samples != other.Samples {
		return nil, fmt.Errorf("bitmat: Append: sample mismatch %d vs %d", m.Samples, other.Samples)
	}
	out := New(m.SNPs+other.SNPs, m.Samples)
	copy(out.Data, m.Data)
	copy(out.Data[m.SNPs*m.Words:], other.Data)
	return out, nil
}

// Column materializes SNP i as a byte vector of 0/1 states, one per sample.
func (m *Matrix) Column(i int) []byte {
	out := make([]byte, m.Samples)
	words := m.SNP(i)
	for s := 0; s < m.Samples; s++ {
		if words[s/WordBits]>>(uint(s)%WordBits)&1 == 1 {
			out[s] = 1
		}
	}
	return out
}

// Row materializes sample s as a byte vector of 0/1 states, one per SNP.
func (m *Matrix) Row(s int) []byte {
	out := make([]byte, m.SNPs)
	for i := 0; i < m.SNPs; i++ {
		if m.Bit(i, s) {
			out[i] = 1
		}
	}
	return out
}

// Transposed returns the sample-major byte representation rows[s][i].
func (m *Matrix) Transposed() [][]byte {
	rows := make([][]byte, m.Samples)
	for s := range rows {
		rows[s] = m.Row(s)
	}
	return rows
}

// Equal reports whether the two matrices have identical dimensions and bits.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.SNPs != o.SNPs || m.Samples != o.Samples {
		return false
	}
	for i, w := range m.Data {
		if w != o.Data[i] {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging: one line per sample.
func (m *Matrix) String() string {
	if m.SNPs*m.Samples > 64*64 {
		return fmt.Sprintf("bitmat.Matrix{%d SNPs × %d samples}", m.SNPs, m.Samples)
	}
	buf := make([]byte, 0, (m.SNPs+1)*m.Samples)
	for s := 0; s < m.Samples; s++ {
		for i := 0; i < m.SNPs; i++ {
			if m.Bit(i, s) {
				buf = append(buf, '1')
			} else {
				buf = append(buf, '0')
			}
		}
		buf = append(buf, '\n')
	}
	return string(buf)
}

// SubsetSamples returns a new matrix containing only the given samples,
// in the given order. Duplicate indices are allowed (bootstrap
// resampling); out-of-range indices panic.
func (m *Matrix) SubsetSamples(samples []int) *Matrix {
	out := New(m.SNPs, len(samples))
	for i := 0; i < m.SNPs; i++ {
		src := m.SNP(i)
		dst := out.SNP(i)
		for si, s := range samples {
			if s < 0 || s >= m.Samples {
				panic(fmt.Sprintf("bitmat: SubsetSamples index %d out of range %d", s, m.Samples))
			}
			if src[s/WordBits]>>(uint(s)%WordBits)&1 == 1 {
				dst[si/WordBits] |= 1 << (uint(si) % WordBits)
			}
		}
	}
	return out
}
