package kernel

import "ldgemm/internal/bitmat"

// Run-packed panel layout for the batched (CSA/vector) popcount kernel
// family. Where PackPanel interleaves SNPs word-by-word so a scalar
// micro-kernel walks both panels with unit stride, the batched kernels
// consume whole kc-word runs per SNP — each register-tile cell is one
// slice AND-count over two contiguous runs — so the panel lays the rr
// SNPs out end to end instead:
//
//	dst[i*kc + l] = word (pc+l) of SNP (snp+i)
//
// The panel occupies the same kc*rr words as the interleaved layout, so
// the blocked driver's buffer arithmetic (slab sizing, SYRK pack
// sharing) is layout-agnostic. Zero padding rows (i >= count) keep the
// fringe guarantee: an all-zero run contributes zero to every count.
func PackPanelRuns(dst []uint64, m *bitmat.Matrix, snp, count, rr, pc, kc int) {
	dst = dst[:kc*rr]
	for i := 0; i < count; i++ {
		copy(dst[i*kc:(i+1)*kc], m.SNP(snp + i)[pc:pc+kc])
	}
	clear(dst[count*kc:])
}
