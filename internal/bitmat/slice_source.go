package bitmat

import "fmt"

// SliceSource exposes SNPs [lo, hi) of an underlying Source as a Source
// in its own right — the per-chromosome view a split build consumes
// without ever materializing the chromosome. Panel simply shifts into the
// parent's coordinates, so a resident matrix or a windowed file backs
// each slice with no extra copies.
//
// The fingerprint is computed over the slice's own dimensions and words
// (one streaming pass at construction), which makes it identical to
// Matrix.Fingerprint of a resident copy of the same rows: a store built
// from the slice binds to the same identity a whole-matrix build of that
// chromosome would.
type SliceSource struct {
	src    Source
	lo, hi int
	fp     uint64
}

// sliceFingerprintStep is the panel width of the construction-time
// fingerprint pass; memory stays O(step × words) for windowed parents.
const sliceFingerprintStep = 4096

// NewSliceSource wraps SNPs [lo, hi) of src. The construction streams the
// slice once to fingerprint it.
func NewSliceSource(src Source, lo, hi int) (*SliceSource, error) {
	if lo < 0 || hi < lo || hi > src.NumSNPs() {
		return nil, fmt.Errorf("bitmat: slice [%d,%d) of %d SNPs", lo, hi, src.NumSNPs())
	}
	s := &SliceSource{src: src, lo: lo, hi: hi}
	h := NewFingerprintHash(hi-lo, src.NumSamples())
	buf := New(min(sliceFingerprintStep, max(hi-lo, 1)), src.NumSamples())
	for a := lo; a < hi; a += sliceFingerprintStep {
		b := min(a+sliceFingerprintStep, hi)
		p, err := src.Panel(a, b, buf)
		if err != nil {
			return nil, err
		}
		h.AddWords(p.Data)
	}
	s.fp = h.Sum64()
	return s, nil
}

// NumSNPs returns the slice length; NumSamples the parent's sample count.
func (s *SliceSource) NumSNPs() int        { return s.hi - s.lo }
func (s *SliceSource) NumSamples() int     { return s.src.NumSamples() }
func (s *SliceSource) Fingerprint() uint64 { return s.fp }

// Panel returns slice-relative SNPs [lo, hi) from the parent.
func (s *SliceSource) Panel(lo, hi int, buf *Matrix) (*Matrix, error) {
	if lo < 0 || hi < lo || hi > s.hi-s.lo {
		return nil, fmt.Errorf("bitmat: panel [%d,%d) of %d-SNP slice", lo, hi, s.hi-s.lo)
	}
	return s.src.Panel(s.lo+lo, s.lo+hi, buf)
}
