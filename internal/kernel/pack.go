package kernel

import "ldgemm/internal/bitmat"

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
// goroutines at once.
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

// MaskedCountOffsets names the four counts of one (i, j) cell of the
// masked drivers' output, in c[(i*ldc+j)*4 + offset] order (Section VII of
// the paper, "Considering alignment gaps").
const (
	MaskedValid = 0 // popcount(cᵢ & cⱼ): samples valid at both SNPs
	MaskedI     = 1 // popcount(cᵢⱼ & sᵢ): derived at i among valid pairs
	MaskedJ     = 2 // popcount(cᵢⱼ & sⱼ)
	MaskedIJ    = 3 // popcount(cᵢⱼ & sᵢ & sⱼ): joint derived among valid
)
