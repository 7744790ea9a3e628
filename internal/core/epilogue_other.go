//go:build !amd64

package core

// Non-amd64 builds have no row kernels and no fused keep or counts kernel:
// each converts nothing and the Go loops do the whole row.

// vectorRows is always false here; tests that clear it to run the Go loops
// alone build everywhere.
var vectorRows = false

func rowD(out []float64, cnt []uint32, colFreq, colTab []float64, inv, pa, tab float64) int {
	return 0
}

func rowR2Fast(out []float64, cnt []uint32, colFreq, colTab []float64, inv, pa, tab float64) int {
	return 0
}

func rowR2Exact(out []float64, cnt []uint32, colFreq, colTab []float64, inv, pa, tab float64) int {
	return 0
}

func keepR2Exact(cols []int32, counts []uint32, cnt []uint32, colFreq, colTab []float64, inv, pa, tab, skip, tau float64, col0 int) (done, kept int) {
	return 0, 0
}

func countsVector16(dst []uint16, cnt []uint32, colFreq, colVar []float64, inv, pa, va, m float64) (int, float64) {
	return 0, m
}
