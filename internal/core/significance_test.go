package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/stats"
)

func TestChiSquareQuantileInvertsTail(t *testing.T) {
	for _, p := range []float64{0.5, 0.05, 0.01, 1e-6, 1e-12} {
		q, err := chiSquareQuantile(p)
		if err != nil {
			t.Fatal(err)
		}
		tail, err := stats.ChiSquarePValue(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tail-p)/p > 1e-5 {
			t.Fatalf("quantile(%v) = %v has tail %v", p, q, tail)
		}
	}
	if q, _ := chiSquareQuantile(1); q != 0 {
		t.Fatalf("quantile(1) = %v", q)
	}
	if q, _ := chiSquareQuantile(0); q < 1e7 {
		t.Fatalf("quantile(0) = %v", q)
	}
	// Known value: P(χ²₁ ≥ 3.8415) ≈ 0.05.
	q, _ := chiSquareQuantile(0.05)
	if math.Abs(q-3.841459) > 1e-4 {
		t.Fatalf("quantile(0.05) = %v", q)
	}
}

func TestSignificanceFindsPlantedPair(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomMatrix(rng, 30, 500)
	// Plant a perfectly correlated pair (5, 17).
	copy(g.SNP(17), g.SNP(5))
	res, err := Significance(g, SignificanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tested != 30*29/2 {
		t.Fatalf("tested %d", res.Tested)
	}
	found := false
	for _, p := range res.Pairs {
		if p.I == 5 && p.J == 17 {
			found = true
			if p.R2 < 0.999 {
				t.Fatalf("planted pair r² %v", p.R2)
			}
			if p.PValue > res.Threshold {
				t.Fatalf("planted pair p %v above threshold %v", p.PValue, res.Threshold)
			}
		}
	}
	if !found {
		t.Fatalf("planted pair not significant; found %+v", res.Pairs)
	}
	// Pairs sorted strongest first.
	for i := 1; i < len(res.Pairs); i++ {
		if res.Pairs[i].R2 > res.Pairs[i-1].R2 {
			t.Fatal("pairs not sorted by r²")
		}
	}
}

func TestSignificanceNullControlsFalsePositives(t *testing.T) {
	// Independent SNPs: with Bonferroni at α=0.05, expect ≈0 rejections.
	rng := rand.New(rand.NewSource(2))
	g := randomMatrix(rng, 80, 400)
	res, err := Significance(g, SignificanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Significant > 1 {
		t.Fatalf("null data produced %d significant pairs", res.Significant)
	}
}

func TestSignificancePerTestAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomMatrix(rng, 60, 300)
	perTest, err := Significance(g, SignificanceOptions{Alpha: 0.05, AlphaIsPerTest: true})
	if err != nil {
		t.Fatal(err)
	}
	corrected, err := Significance(g, SignificanceOptions{Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Uncorrected testing at α=0.05 on null data rejects ≈5% of pairs;
	// corrected rejects essentially none.
	if perTest.Significant <= corrected.Significant {
		t.Fatalf("per-test %d should exceed corrected %d", perTest.Significant, corrected.Significant)
	}
	expect := 0.05 * float64(perTest.Tested)
	if float64(perTest.Significant) < expect/3 || float64(perTest.Significant) > expect*3 {
		t.Fatalf("per-test rejections %d far from the expected ≈%v", perTest.Significant, expect)
	}
}

func TestSignificanceMaxResults(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomMatrix(rng, 40, 100)
	res, err := Significance(g, SignificanceOptions{Alpha: 0.9, AlphaIsPerTest: true, MaxResults: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) > 5 {
		t.Fatalf("MaxResults ignored: %d pairs", len(res.Pairs))
	}
	if res.Significant < int64(len(res.Pairs)) {
		t.Fatal("Significant count below returned pairs")
	}
}

// TestSignificanceTiesAtTheCut: when the cut falls inside a run of tied
// pairs, the kept ones are exactly the first MaxResults of the canonical
// ranking of every pair. The ties here are scanned before the strongest
// pairs, so which of them get evicted is the heap's choice: a heap ordered
// by r² alone drops arbitrary ones.
func TestSignificanceTiesAtTheCut(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomMatrix(rng, 40, 128)
	// SNPs 5, 8, …, 23 are SNP 2 less one carrier each, a different one:
	// 7 pairs (2, b) tie, and below them the 21 pairs (b, b').
	carrier := 0
	for b := 5; b <= 23; b += 3 {
		copy(g.SNP(b), g.SNP(2))
		for g.SNP(2)[0]>>carrier&1 == 0 {
			carrier++
		}
		g.SNP(b)[0] &^= 1 << carrier
		carrier++
	}
	// Scanned after all of those and stronger: three identical SNPs.
	copy(g.SNP(33), g.SNP(30))
	copy(g.SNP(36), g.SNP(30))

	var all []SignificantPair
	err := Stream(g, StreamOptions{Options: Options{Measures: MeasureR2}, Triangular: true},
		func(i, j0 int, row []float64) {
			for t, r2 := range row {
				if j := j0 + t; j != i {
					all = append(all, SignificantPair{I: i, J: j, R2: r2})
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(all, func(a, b int) bool {
		return RanksBefore(all[a].R2, all[a].I, all[a].J, all[b].R2, all[b].I, all[b].J)
	})
	if all[0].R2 != all[2].R2 || all[3].R2 != all[9].R2 || all[10].R2 != all[30].R2 ||
		!(all[2].R2 > all[3].R2 && all[9].R2 > all[10].R2 && all[30].R2 > all[31].R2) {
		t.Fatalf("want runs of 3, 7 and 21 tied pairs, the ranking opens %v", all[:32])
	}
	for k := 1; k <= 40; k++ {
		res, err := Significance(g, SignificanceOptions{Alpha: 0.999999, AlphaIsPerTest: true, MaxResults: k})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Pairs) != k {
			t.Fatalf("MaxResults %d kept %d pairs", k, len(res.Pairs))
		}
		for r, p := range res.Pairs {
			if w := all[r]; p.I != w.I || p.J != w.J || math.Float64bits(p.R2) != math.Float64bits(w.R2) {
				t.Fatalf("MaxResults %d: rank %d is (%d,%d) r²=%v, the full ranking has (%d,%d) r²=%v",
					k, r, p.I, p.J, p.R2, w.I, w.J, w.R2)
			}
		}
	}
}

func TestSignificanceOptionsValidation(t *testing.T) {
	g := bitmat.New(5, 20)
	if _, err := Significance(g, SignificanceOptions{Alpha: 1.5}); err == nil {
		t.Fatal("alpha>1 accepted")
	}
	if _, err := Significance(g, SignificanceOptions{MaxResults: -1}); err == nil {
		t.Fatal("negative MaxResults accepted")
	}
}

// TestSignificanceVisitorMatchesReference: the scan's counts and kept pairs
// against a ranking built the slow way — every cell of the same stream, each
// held to PairLD, cut, sorted by RanksBefore and truncated — on a cohort with
// runs of tied pairs, a monomorphic SNP (r² 0 against everything), with and
// without a row window, at a cut nothing fails and one most pairs fail, and
// with MaxResults 1, 20 and more than there are pairs.
func TestSignificanceVisitorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	g := randomMatrix(rng, 48, 128)
	for b := 5; b <= 23; b += 3 { // 7 copies of SNP 2: 21 pairs at r² 1, 7 × 40 more in tied runs
		copy(g.SNP(b), g.SNP(2))
	}
	copy(g.SNP(40), g.SNP(30))
	clear(g.SNP(11)) // monomorphic

	for _, window := range [][2]int{{0, 0}, {0, 16}, {7, 31}, {40, 48}} {
		var all []SignificantPair
		err := Stream(g, StreamOptions{Options: Options{Measures: MeasureR2}, Triangular: true, RowStart: window[0], RowEnd: window[1]},
			func(i, j0 int, row []float64) {
				for c, r2 := range row {
					if j := j0 + c; j != i {
						if want := PairLD(g, i, j).R2; math.Abs(r2-want) > 1e-12 {
							t.Fatalf("streamed r²(%d,%d) = %v, PairLD %v", i, j, r2, want)
						}
						all = append(all, SignificantPair{I: i, J: j, R2: r2})
					}
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		for _, alpha := range []float64{0.999999, 0.05} {
			chiCut, err := chiSquareQuantile(alpha)
			if err != nil {
				t.Fatal(err)
			}
			var want []SignificantPair
			for _, p := range all {
				if !(p.R2 < chiCut/float64(g.Samples)) {
					want = append(want, p)
				}
			}
			sort.Slice(want, func(a, b int) bool {
				return RanksBefore(want[a].R2, want[a].I, want[a].J, want[b].R2, want[b].I, want[b].J)
			})
			if len(want) == 0 || window == [2]int{} && len(want) > len(all)-(g.SNPs-1) {
				t.Fatalf("rows %v alpha %v keeps %d of %d pairs: the monomorphic SNP's must fail the cut and some pass it", window, alpha, len(want), len(all))
			}
			for _, k := range []int{1, 20, len(all) + 5} {
				res, err := Significance(g, SignificanceOptions{Alpha: alpha, AlphaIsPerTest: true, MaxResults: k,
					RowStart: window[0], RowEnd: window[1]})
				if err != nil {
					t.Fatal(err)
				}
				if res.Tested != int64(len(all)) || res.Significant != int64(len(want)) || len(res.Pairs) != min(k, len(want)) {
					t.Fatalf("rows %v alpha %v MaxResults %d: tested %d, significant %d, kept %d; the reference has %d, %d, %d",
						window, alpha, k, res.Tested, res.Significant, len(res.Pairs), len(all), len(want), min(k, len(want)))
				}
				for r, p := range res.Pairs {
					if w := want[r]; p.I != w.I || p.J != w.J || math.Float64bits(p.R2) != math.Float64bits(w.R2) {
						t.Fatalf("rows %v alpha %v MaxResults %d: rank %d is (%d,%d) r²=%v, the reference has (%d,%d) r²=%v",
							window, alpha, k, r, p.I, p.J, p.R2, w.I, w.J, w.R2)
					}
				}
			}
		}
	}
}
