package core

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
)

// refHeap is the row visitor's heap, container/heap over the reverse
// canonical order.
type refHeap []SignificantPair

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return RanksBefore(h[j].R2, h[j].I, h[j].J, h[i].R2, h[i].I, h[i].J)
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(SignificantPair)) }
func (h *refHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// visitorSelect is the row-visitor reference of the selection scan: the
// float stream's rows, every cell past the diagonal counted, cut, and
// offered to one heap against its floor, as Significance ranked before the
// selection epilogue. It returns the pairs in canonical order.
func visitorSelect(t *testing.T, g *bitmat.Matrix, lo, hi, k int, cut float64) (pairs []SignificantPair, tested, significant int64) {
	t.Helper()
	h := &refHeap{}
	floor := math.Inf(-1)
	err := Stream(g, StreamOptions{Options: Options{Measures: MeasureR2}, Triangular: true, RowStart: lo, RowEnd: hi},
		func(i, j0 int, row []float64) {
			for c, r2 := range row[1:] {
				tested++
				if r2 < cut {
					continue
				}
				significant++
				if r2 < floor {
					continue
				}
				p := SignificantPair{I: i, J: j0 + 1 + c, R2: r2}
				if h.Len() < k {
					heap.Push(h, p)
				} else if last := (*h)[0]; RanksBefore(p.R2, p.I, p.J, last.R2, last.I, last.J) {
					(*h)[0] = p
					heap.Fix(h, 0)
				}
				if h.Len() == k {
					floor = (*h)[0].R2
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(*h, func(a, b int) bool {
		x, y := (*h)[a], (*h)[b]
		return RanksBefore(x.R2, x.I, x.J, y.R2, y.I, y.J)
	})
	return *h, tested, significant
}

// splitOut runs a selection scan's stripes as selectOut does, but hands
// each row of a run to the epilogue in two column halves, each as if
// another of workers driver workers had computed it. The driver runs on one
// worker, so the remapped calls never overlap.
type splitOut struct {
	*selectOut
	workers int
}

func (o splitOut) epilogue(col0 int) blis.Epilogue {
	e := o.selectOut.epilogue(col0)
	return blis.TileEpilogue(func(_ int, t []uint32, ldt, i0, j0, mm, nn int) {
		for r := 0; r < mm; r++ {
			half := nn / 2
			e.RowRun((i0+r+j0)%o.workers, t[r*ldt:], ldt, i0+r, j0, 1, half)
			e.RowRun((i0+r+j0+1)%o.workers, t[r*ldt+half:], ldt, i0+r, j0+half, 1, nn-half)
		}
	})
}

// TestSelectScanMatchesVisitor: the selection scan against the row-visitor
// reference — tested and significant counts, and every kept pair's (i, j)
// and r² bits — at Threads 1, 2 and 4 (16-row stripes, the small-call rule
// lowered so every driver call may spread), on the kernel and on the Go
// loops alone, and with every row split across four workers by column, on
// one driver worker: which worker runs a job is the scheduler's choice, the
// split is not. The cohort is
// TestSignificanceVisitorMatchesReference's: eight identical SNPs (28 pairs
// tied at r² 1, so a MaxResults of 5 or 20 cuts inside the tie, which the
// split runs spread over every worker), tied runs below them, a monomorphic
// SNP, four row windows, a cut nothing fails and one most pairs fail, and
// MaxResults 1, 5, 20 and more than there are pairs. With 16-row stripes a
// tie ranking first can arrive after ones ranking later — pair (2, 17)
// comes from stripe 0's column panel, after (5, 8) from its diagonal block
// — so a heap that let an equal r² keep its place would keep the wrong 5.
func TestSelectScanMatchesVisitor(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	g := randomMatrix(rng, 48, 128)
	for b := 5; b <= 23; b += 3 {
		copy(g.SNP(b), g.SNP(2))
	}
	copy(g.SNP(40), g.SNP(30))
	clear(g.SNP(11))

	defer blis.SetMinParallelForTest(blis.SetMinParallelForTest(0))
	restore := vectorRows
	defer func() { vectorRows = restore }()

	type run struct {
		name string
		scan func(opt StreamOptions, sel *selector) error
	}
	runs := []run{{"split/4", func(opt StreamOptions, sel *selector) error {
		opt.Measures, opt.Triangular, opt.Blis.Threads = MeasureR2, true, 1
		sc, err := newScan(bitmat.NewMemSource(g), opt, false)
		if err != nil {
			return err
		}
		sel.reset(4)
		epi := &selectEpilogue{sc: sc, sel: sel}
		return sc.run(1, func() stripeOut { return splitOut{&selectOut{conv: sc.conv(opt), epi: epi}, 4} })
	}}}
	for _, threads := range []int{1, 2, 4} {
		runs = append(runs, run{fmt.Sprintf("threads/%d", threads), func(opt StreamOptions, sel *selector) error {
			opt.Blis.Threads, opt.StripeRows = threads, 16
			return selectScan(bitmat.NewMemSource(g), opt, sel)
		}})
	}
	for _, vector := range []bool{false, true} {
		vectorRows = vector && restore
		for _, window := range [][2]int{{0, 0}, {0, 16}, {7, 31}, {40, 48}} {
			lo, hi := window[0], window[1]
			if hi == 0 {
				hi = g.SNPs
			}
			pairs := int64(g.SNPs-1-lo+g.SNPs-hi) * int64(hi-lo) / 2
			for _, alpha := range []float64{0.999999, 0.05} {
				chiCut, err := chiSquareQuantile(alpha)
				if err != nil {
					t.Fatal(err)
				}
				cut := chiCut / float64(g.Samples)
				for _, k := range []int{1, 5, 20, int(pairs) + 5} {
					want, wantTested, wantSig := visitorSelect(t, g, window[0], window[1], k, cut)
					if wantTested != pairs || wantSig == 0 || window == [2]int{} && wantSig == pairs {
						t.Fatalf("rows %v alpha %v: the reference tests %d pairs and keeps %d; want %d tested, some kept, and the monomorphic SNP's cut",
							window, alpha, wantTested, wantSig, pairs)
					}
					for _, r := range runs {
						what := fmt.Sprintf("vector=%v %s rows %v alpha %v MaxResults %d", vectorRows, r.name, window, alpha, k)
						sel := getSelector(k, cut)
						if err := r.scan(StreamOptions{RowStart: window[0], RowEnd: window[1]}, sel); err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						got, tested, sig := sel.merge()
						selectorPool.Put(sel)
						if tested != wantTested || sig != wantSig || len(got) != len(want) {
							t.Fatalf("%s: tested %d, significant %d, kept %d; the visitor has %d, %d, %d",
								what, tested, sig, len(got), wantTested, wantSig, len(want))
						}
						for x, p := range got {
							if w := want[x]; p.I != w.I || p.J != w.J || math.Float64bits(p.R2) != math.Float64bits(w.R2) {
								t.Fatalf("%s: rank %d is (%d,%d) r²=%v, the visitor has (%d,%d) r²=%v",
									what, x, p.I, p.J, p.R2, w.I, w.J, w.R2)
							}
						}
					}
				}
			}
		}
	}
}

// selectReference is the selection row as the Go path runs it: the whole
// row converted by scalarR2Fast, then selectScalar.
func selectReference(cnt []uint32, colFreq, colInv []float64, inv, pa, iva, floor, cut float64) (cols []int32, vals []float64, below int) {
	row := make([]float64, len(cnt))
	scalarR2Fast(row, cnt, colFreq, colInv, inv, pa, iva)
	cols, vals = make([]int32, len(cnt)), make([]float64, len(cnt))
	cands, below := selectScalar(cols, vals, row, floor, cut, 3)
	return cols[:cands], vals[:cands], below
}

// checkSelectRow holds the fused selection kernel to selectReference over
// one row: the same candidate columns, r² bits and below-cut count, and no
// store past the row's room (canaries after it).
func checkSelectRow(t testing.TB, what string, cnt []uint32, colFreq, colInv []float64, inv, pa, iva, floor, cut float64) {
	t.Helper()
	wc, wv, wb := selectReference(cnt, colFreq, colInv, inv, pa, iva, floor, cut)
	n, room := len(cnt), keepRoom(len(cnt))
	const canary = 0x7eadbeef
	cols, vals := make([]int32, room+4), make([]float64, room+4)
	for c := room; c < room+4; c++ {
		cols[c], vals[c] = canary, sentinel
	}
	done, cands, below := selectR2Fast(cols[:room], vals[:room], cnt, colFreq, colInv, inv, pa, iva, floor, cut, 3)
	if done != n {
		t.Fatalf("%s (len %d): the kernel ran over %d cells", what, n, done)
	}
	for c := room; c < room+4; c++ {
		if cols[c] != canary || math.Float64bits(vals[c]) != math.Float64bits(sentinel) {
			t.Fatalf("%s (len %d): the kernel wrote cell %d, past its room of %d", what, n, c, room)
		}
	}
	if cands != len(wc) || below != wb {
		t.Fatalf("%s (len %d, floor %g, cut %g): %d candidates %v, %d below; the Go loop has %d %v, %d",
			what, n, floor, cut, cands, cols[:cands], below, len(wc), wc, wb)
	}
	for c := range wc {
		if cols[c] != wc[c] || math.Float64bits(vals[c]) != math.Float64bits(wv[c]) {
			t.Fatalf("%s (len %d, floor %g, cut %g): candidate %d is column %d = %v, the Go loop has column %d = %v",
				what, n, floor, cut, c, cols[c], vals[c], wc[c], wv[c])
		}
	}
}

// TestSelectRowEdges: the fused selection kernel against its Go loop over
// every row length 0–17 (no group, one partial, one whole, one whole and a
// partial, two whole and a cell), with counts at 0 and at N, a monomorphic
// column (reciprocal 0, r² 0), floors at ±Inf, NaN and at a value the row
// holds (a tie, which is a candidate) and one ulp either side, and cuts at
// 0, the least subnormal, that same value and NaN. A length-0 row is run
// over by neither.
func TestSelectRowEdges(t *testing.T) {
	if !vectorRows {
		t.Skip("host has no AVX-512F: the fused selection kernel runs over nothing here")
	}
	const samples = 1000
	inv := 1.0 / samples
	const maxLen = 17
	cnt := make([]uint32, maxLen)
	p := make([]float64, maxLen)
	for c := range cnt {
		p[c] = float64(1+(c*37)%(samples-1)) / samples
		cnt[c] = uint32(float64(samples) * p[c] * (0.3 + 0.04*float64(c%17)))
	}
	cnt[2], cnt[9] = 0, samples
	p[9] = 0.999
	p[13], cnt[13] = 0, 0 // monomorphic
	colInv := invVarTable(p)
	pa := 0.41
	iva := 1 / (pa * (1 - pa))
	row := make([]float64, maxLen)
	scalarR2Fast(row, cnt, p, colInv, inv, pa, iva)
	mid := row[6]
	if !(mid > 0 && mid < 1) {
		t.Fatalf("cell 6 converts to %g; pick another", mid)
	}
	floors := []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0, mid, math.Nextafter(mid, 0), math.Nextafter(mid, 2)}
	cuts := []float64{0, math.SmallestNonzeroFloat64, mid, math.NaN()}
	if done, _, _ := selectR2Fast(nil, nil, nil, nil, nil, inv, pa, iva, 0, 0, 0); done != 0 {
		t.Fatal("an empty row was run over")
	}
	for _, floor := range floors {
		for _, cut := range cuts {
			for n := 1; n <= maxLen; n++ {
				for _, lo := range []int{0, maxLen - n} {
					what := fmt.Sprintf("floor %g cut %g from %d", floor, cut, lo)
					checkSelectRow(t, what, cnt[lo:][:n], p[lo:][:n], colInv[lo:][:n], inv, pa, iva, floor, cut)
				}
			}
		}
	}
}

// FuzzSelectRow maps bytes to a sample count, a floor and a cut (any
// float64 bits), the row frequency, and one (count, frequency) pair per
// six bytes — the row's length is however many pairs the input holds — and
// holds the fused selection kernel to its Go loop: the same candidate
// columns and r² bits, and the same below-cut count.
func FuzzSelectRow(f *testing.F) {
	seed := func(floor, cut float64, pa uint16, cells int) []byte {
		b := binary.BigEndian.AppendUint16(nil, 1000)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(floor))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(cut))
		b = binary.BigEndian.AppendUint16(b, pa)
		for c := range cells {
			b = append(b, 0, 0, byte(c), byte(c*91), byte(c*37), byte(c*13))
		}
		return b
	}
	f.Add(seed(math.Inf(-1), 0, 30000, 19))
	f.Add(seed(0.01, 1e-9, 65535, 8))
	f.Add(seed(0.2, math.SmallestNonzeroFloat64, 12345, 33))
	f.Add(seed(math.NaN(), math.Inf(1), 40000, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		if !vectorRows {
			t.Skip("host has no AVX-512F")
		}
		if len(data) < 20 {
			return
		}
		samples := int(binary.BigEndian.Uint16(data))
		var inv float64
		if samples > 0 {
			inv = 1 / float64(samples)
		}
		floor := math.Float64frombits(binary.BigEndian.Uint64(data[2:]))
		cut := math.Float64frombits(binary.BigEndian.Uint64(data[10:]))
		pa := float64(binary.BigEndian.Uint16(data[18:])) / 65535
		cells := min((len(data)-20)/6, 512)
		if cells == 0 {
			return
		}
		cnt := make([]uint32, cells)
		p := make([]float64, cells)
		for c := range cnt {
			cell := data[20+6*c:]
			cnt[c] = binary.BigEndian.Uint32(cell)
			p[c] = float64(binary.BigEndian.Uint16(cell[4:])) / 65535
		}
		iva := invVarTable([]float64{pa})[0]
		checkSelectRow(t, "fuzz", cnt, p, invVarTable(p), inv, pa, iva, floor, cut)
	})
}
