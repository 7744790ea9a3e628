package kernel

import (
	"ldgemm/internal/bitmat"
	"ldgemm/internal/popcount"
)

// PackPanel packs rr consecutive SNPs of m (starting at snp, count of them
// real, the rest zero-padded) over the word range [pc, pc+kc) into the
// interleaved panel layout the micro-kernels consume:
//
//	dst[l*rr + i] = word (pc+l) of SNP (snp+i)
//
// dst must have kc*rr capacity. Zero padding rows (i >= count) are the
// mechanism by which fringe tiles are computed at full micro-kernel speed:
// an all-zero SNP contributes zero to every count.
//
// PackPanel only reads the source matrix and only writes dst[:kc*rr], so
// concurrent calls are safe whenever their dst panels do not overlap — the
// parallel driver relies on this to pack a slab's panels from many
// goroutines at once. The same holds for PackMaskedPanel.
func PackPanel(dst []uint64, m *bitmat.Matrix, snp, count, rr, pc, kc int) {
	dst = dst[:kc*rr]
	for i := 0; i < count; i++ {
		src := m.SNP(snp + i)[pc : pc+kc]
		for l := 0; l < kc; l++ {
			dst[l*rr+i] = src[l]
		}
	}
	for i := count; i < rr; i++ {
		for l := 0; l < kc; l++ {
			dst[l*rr+i] = 0
		}
	}
}

// MaskedCountOffsets names the four counts the masked micro-kernel emits
// per (i, j) cell, in c[(i*ldc+j)*4 + offset] order (Section VII of the
// paper, "Considering alignment gaps").
const (
	MaskedValid = 0 // popcount(cᵢ & cⱼ): samples valid at both SNPs
	MaskedI     = 1 // popcount(cᵢⱼ & sᵢ): derived at i among valid pairs
	MaskedJ     = 2 // popcount(cᵢⱼ & sⱼ)
	MaskedIJ    = 3 // popcount(cᵢⱼ & sᵢ & sⱼ): joint derived among valid
)

// MaskedFunc computes an MR×NR micro-tile of the four Section VII counts.
// Panels interleave (value, mask) word pairs: ap[(l*mr+i)*2] is the SNP
// word, ap[(l*mr+i)*2+1] the validity word.
type MaskedFunc func(kc int, ap, bp []uint64, c []uint32, ldc int)

// MaskedKernel bundles a masked micro-kernel with its shape.
type MaskedKernel struct {
	Name string
	MR   int
	NR   int
	Fn   MaskedFunc
}

// PackMaskedPanel packs (value, mask) pairs in the layout MaskedFunc
// expects. Padding rows get zero values with zero masks, so they produce
// zero for all four counts.
func PackMaskedPanel(dst []uint64, m *bitmat.Matrix, k *bitmat.Mask, snp, count, rr, pc, kc int) {
	dst = dst[:2*kc*rr]
	for i := 0; i < count; i++ {
		sv := m.SNP(snp + i)[pc : pc+kc]
		cv := k.SNP(snp + i)[pc : pc+kc]
		for l := 0; l < kc; l++ {
			dst[(l*rr+i)*2] = sv[l]
			dst[(l*rr+i)*2+1] = cv[l]
		}
	}
	for i := count; i < rr; i++ {
		for l := 0; l < kc; l++ {
			dst[(l*rr+i)*2] = 0
			dst[(l*rr+i)*2+1] = 0
		}
	}
}

// MaskedGeneric returns a masked micro-kernel of arbitrary shape. Per word
// it fuses the four Section VII popcounts, so the matrix is traversed once
// rather than four times.
func MaskedGeneric(mr, nr int) MaskedKernel {
	fn := func(kc int, ap, bp []uint64, c []uint32, ldc int) {
		for l := 0; l < kc; l++ {
			a := ap[l*mr*2 : (l+1)*mr*2]
			b := bp[l*nr*2 : (l+1)*nr*2]
			for i := 0; i < mr; i++ {
				si, ci := a[2*i], a[2*i+1]
				for j := 0; j < nr; j++ {
					sj, cj := b[2*j], b[2*j+1]
					cij := ci & cj
					cell := c[(i*ldc+j)*4 : (i*ldc+j)*4+4]
					cell[MaskedValid] += popcount.Count(cij)
					cell[MaskedI] += popcount.Count(cij & si)
					cell[MaskedJ] += popcount.Count(cij & sj)
					cell[MaskedIJ] += popcount.Count(cij & si & sj)
				}
			}
		}
	}
	return MaskedKernel{Name: "masked-generic", MR: mr, NR: nr, Fn: fn}
}

// Masked2x2 is the unrolled masked micro-kernel used by the gap-aware
// driver; the 4-counts-per-cell payload leaves fewer registers for
// accumulators, so the register block is smaller than the unmasked
// default. The compute loop lives in masked2x2.go with scalar
// accumulators.
func Masked2x2() MaskedKernel {
	return MaskedKernel{Name: "masked2x2", MR: 2, NR: 2, Fn: masked2x2Scalar}
}
