//go:build !amd64

package core

// Non-amd64 builds have no row kernels: each converts nothing and
// denseEpilogue.row's Go loops do the whole row.

func rowD(out []float64, cnt []uint32, colFreq, colTab []float64, inv, pa, tab float64) int {
	return 0
}

func rowR2Fast(out []float64, cnt []uint32, colFreq, colTab []float64, inv, pa, tab float64) int {
	return 0
}

func rowR2Exact(out []float64, cnt []uint32, colFreq, colTab []float64, inv, pa, tab float64) int {
	return 0
}
