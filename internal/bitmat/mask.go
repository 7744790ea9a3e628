package bitmat

import (
	"fmt"
	"math/bits"
)

// Mask is a validity mask with the same shape and storage scheme as Matrix.
// A set bit means the sample carries a valid allelic state at that SNP; a
// clear bit marks an alignment gap or ambiguous character (Sec. VII of the
// paper, "Considering alignment gaps"). Padding bits are zero, i.e. invalid,
// which composes correctly with the masked counts: an invalid position can
// never contribute to a count.
type Mask struct {
	Matrix
}

// NewMask returns a mask with every in-range sample bit valid.
func NewMask(snps, samples int) *Mask {
	m := New(snps, samples)
	fill := m.PadMask()
	for i := 0; i < snps; i++ {
		words := m.SNP(i)
		for w := range words {
			words[w] = ^uint64(0)
		}
		if len(words) > 0 {
			words[len(words)-1] = fill
		}
	}
	return &Mask{Matrix: *m}
}

// MaskFromColumns builds a mask from SNP-major validity columns: nonzero
// means valid.
func MaskFromColumns(cols [][]byte) (*Mask, error) {
	m, err := FromColumns(cols)
	if err != nil {
		return nil, err
	}
	return &Mask{Matrix: *m}, nil
}

// Invalidate marks sample s at SNP i as a gap/ambiguous state.
func (k *Mask) Invalidate(snp, sample int) { k.ClearBit(snp, sample) }

// Validate marks sample s at SNP i as a valid allelic state.
func (k *Mask) Validate(snp, sample int) { k.SetBit(snp, sample) }

// ValidCount returns the number of valid samples at SNP i.
func (k *Mask) ValidCount(i int) int { return k.DerivedCount(i) }

// PairValidCount returns popcount(cᵢ & cⱼ): the number of samples valid at
// both SNPs, the c_ij of Sec. VII.
func (k *Mask) PairValidCount(i, j int) int {
	a, b := k.SNP(i), k.SNP(j)
	n := 0
	for w := range a {
		n += bits.OnesCount64(a[w] & b[w])
	}
	return n
}

// ApplyTo zeroes every matrix bit the mask marks invalid, enforcing the
// invariant s = s & c in place.
func (k *Mask) ApplyTo(m *Matrix) error {
	if k.SNPs != m.SNPs || k.Samples != m.Samples {
		return fmt.Errorf("bitmat: mask %dx%d does not match matrix %dx%d",
			k.SNPs, k.Samples, m.SNPs, m.Samples)
	}
	for w := range m.Data {
		m.Data[w] &= k.Data[w]
	}
	return nil
}

// Interleave returns the 2n-SNP matrix whose SNP 2i is sᵢ∧cᵢ (SNP i of m,
// masked) and SNP 2i+1 is cᵢ. Its plain count matrix holds, in the 2×2
// block of SNP pair (i, j), the four Section VII counts: |sᵢ∧sⱼ∧cᵢⱼ| and
// |sᵢ∧cᵢⱼ| on row 2i, |sⱼ∧cᵢⱼ| and |cᵢⱼ| on row 2i+1 (cᵢⱼ = cᵢ∧cⱼ). m
// must have the mask's shape; it is not modified.
func (k *Mask) Interleave(m *Matrix) *Matrix {
	out := New(2*k.SNPs, k.Samples)
	for i := 0; i < k.SNPs; i++ {
		s, c := m.SNP(i), k.SNP(i)
		v := out.SNP(2 * i)
		for w := range v {
			v[w] = s[w] & c[w]
		}
		copy(out.SNP(2*i+1), c)
	}
	return out
}
