//go:build amd64

package core

import "ldgemm/internal/popcount"

// Implemented in epilogue_amd64.s.
//
//go:noescape
func rowDAVX512(out *float64, cnt *uint32, colFreq *float64, n int, inv, pa float64)

//go:noescape
func rowR2FastAVX512(out *float64, cnt *uint32, colFreq, colInv *float64, n int, inv, pa, iva float64)

//go:noescape
func rowR2ExactAVX512(out *float64, cnt *uint32, colFreq, colVar *float64, n int, inv, pa, va float64)

//go:noescape
func keepR2ExactAVX512(cols *int32, counts *uint32, cnt *uint32, colFreq, colVar *float64, n int, inv, pa, va, skip, tau float64, col0 int32) int

//go:noescape
func countsR2Max16AVX512(dst *uint16, cnt *uint32, colFreq, colVar *float64, n int, inv, pa, va, m float64) float64

// The row kernels are the vector bodies of denseEpilogue.row's loops: rowX
// converts the first vectorCells(cnt) cells, bit for bit what scalarX
// writes there, and returns that count for the Go loop to finish from. The
// assembly reads and writes n elements of each operand without looking at
// a slice length, so the extents are checked here, by the index
// expressions whose failure the Go loop would panic on.

// vectorRows says whether the row kernels and keepR2Exact run: on a host
// with AVX-512F. Only tests clear it, to run the Go loops alone.
var vectorRows = popcount.HasAVX512F()

// vectorCells returns how many leading cells of a row the kernels convert:
// whole groups of eight, none on a host without AVX-512F.
func vectorCells(cnt []uint32) int {
	if !vectorRows {
		return 0
	}
	return len(cnt) &^ 7
}

// rowD writes out[c] = float64(cnt[c])·inv − pa·colFreq[c]. colTab and tab
// are unused: D reads no r² table.
func rowD(out []float64, cnt []uint32, colFreq, _ []float64, inv, pa, _ float64) int {
	n := vectorCells(cnt)
	if n > 0 {
		_, _ = out[n-1], colFreq[n-1]
		rowDAVX512(&out[0], &cnt[0], &colFreq[0], n, inv, pa)
	}
	return n
}

// rowR2Fast writes out[c] = d·d·(tab·colTab[c]) over reciprocal tables.
func rowR2Fast(out []float64, cnt []uint32, colFreq, colTab []float64, inv, pa, tab float64) int {
	n := vectorCells(cnt)
	if n > 0 {
		_, _, _ = out[n-1], colFreq[n-1], colTab[n-1]
		rowR2FastAVX512(&out[0], &cnt[0], &colFreq[0], &colTab[0], n, inv, pa, tab)
	}
	return n
}

// rowR2Exact writes out[c] = d·d/(tab·colTab[c]) over variance tables, +0
// where that denominator is not positive.
func rowR2Exact(out []float64, cnt []uint32, colFreq, colTab []float64, inv, pa, tab float64) int {
	n := vectorCells(cnt)
	if n > 0 {
		_, _, _ = out[n-1], colFreq[n-1], colTab[n-1]
		rowR2ExactAVX512(&out[0], &cnt[0], &colFreq[0], &colTab[0], n, inv, pa, tab)
	}
	return n
}

// keepR2Exact is the vector body of the kept epilogue's exact r² rows
// (kept.go): it runs over every cell of its row, stores the ones that keep
// — |v| ≥ τ — at the front of cols and counts, column col0+c and count
// cnt[c] for cell c, and returns how many cells it ran over (all, or none
// on a host without AVX-512F) and how many it kept. It writes whole groups
// of eight lanes, so cols and counts must hold the row's length rounded up to a multiple of
// eight, whatever survives (keepRoom).
//
// It converts by rowR2ExactAVX512's lanes and selects in the same pass,
// skipping every group of eight whose cells all fall below skip (see
// skipBound) before dividing it.
func keepR2Exact(cols []int32, counts []uint32, cnt []uint32, colFreq, colTab []float64, inv, pa, tab, skip, tau float64, col0 int) (done, kept int) {
	n := len(cnt)
	if n == 0 || !vectorRows {
		return 0, 0
	}
	_, _, _, _ = cols[keepRoom(n)-1], counts[keepRoom(n)-1], colFreq[n-1], colTab[n-1]
	return n, keepR2ExactAVX512(&cols[0], &counts[0], &cnt[0], &colFreq[0], &colTab[0], n, inv, pa, tab, skip, tau, int32(col0))
}

// countsVector16 is the vector body of the counts epilogue's rows
// (counts.go): over the first vectorCells(cnt) cells it stores dst[c] =
// uint16(cnt[c]) and returns that count with the greatest of m and the
// exact r² among them. Every bit is what countsRowGo stores and folds over
// those cells from m.
//
// The kernel skips a group of eight undivided when every lane passes
// keepR2Exact's test against that lane's running maximum (skipBound): such
// a group cannot raise the maximum.
func countsVector16(dst []uint16, cnt []uint32, colFreq, colVar []float64, inv, pa, va, m float64) (int, float64) {
	n := vectorCells(cnt)
	if n == 0 {
		return 0, m
	}
	_, _, _ = dst[n-1], colFreq[n-1], colVar[n-1]
	return n, countsR2Max16AVX512(&dst[0], &cnt[0], &colFreq[0], &colVar[0], n, inv, pa, va, m)
}
