package core

import (
	"sort"
	"testing"
)

// TestStreamRowWindow checks that a row-windowed scan delivers exactly the
// window's rows, bit-identical to the same rows of a full scan and of the
// split (count-then-convert) oracle, across triangular/full × fast/exact
// and window placements that start mid-stripe, end mid-stripe, and cover
// single rows.
func TestStreamRowWindow(t *testing.T) {
	g := streamMatrix(t, 61, 96, 404)
	n := g.SNPs
	windows := [][2]int{{0, n}, {0, 17}, {17, 42}, {42, n}, {n - 1, n}, {30, 31}}
	for _, tri := range []bool{true, false} {
		for _, exact := range []bool{false, true} {
			base := StreamOptions{Triangular: tri, StripeRows: 13, Exact: exact}
			full := collectStream(t, g, base)
			split := splitStream(t, g, MeasureR2, exact)
			for _, w := range windows {
				opt := base
				opt.RowStart, opt.RowEnd = w[0], w[1]
				seen := 0
				err := Stream(g, opt, func(i, j0 int, row []float64) {
					if i < w[0] || i >= w[1] {
						t.Fatalf("window %v delivered row %d", w, i)
					}
					seen++
					for tt, v := range row {
						if want := full[i*n+j0+tt]; v != want {
							t.Fatalf("tri=%v exact=%v window %v: (%d,%d) = %v, full scan %v",
								tri, exact, w, i, j0+tt, v, want)
						}
						if want := split[i*n+j0+tt]; v != want {
							t.Fatalf("tri=%v exact=%v window %v: (%d,%d) = %v, split oracle %v",
								tri, exact, w, i, j0+tt, v, want)
						}
					}
				})
				if err != nil {
					t.Fatalf("Stream window %v: %v", w, err)
				}
				if seen != w[1]-w[0] {
					t.Fatalf("window %v delivered %d rows", w, seen)
				}
			}
		}
	}
}

func TestStreamRowWindowInvalid(t *testing.T) {
	g := streamMatrix(t, 10, 32, 7)
	for _, w := range [][2]int{{-1, 5}, {5, 5}, {7, 3}, {0, 11}, {3, 0}} {
		opt := StreamOptions{Triangular: true, RowStart: w[0], RowEnd: w[1]}
		if err := Stream(g, opt, func(int, int, []float64) {}); err == nil {
			t.Fatalf("window %v accepted", w)
		}
	}
}

// TestSignificanceRowWindow checks that per-strip scans union to the full
// scan: with a per-test alpha every shard applies the same cutoff, so the
// merged strip results, ordered by the canonical comparator, reproduce
// the single-scan ranking exactly.
func TestSignificanceRowWindow(t *testing.T) {
	g := streamMatrix(t, 48, 80, 505)
	opt := SignificanceOptions{Alpha: 0.2, AlphaIsPerTest: true, MaxResults: 10000}
	full, err := Significance(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	var merged []SignificantPair
	var tested, signif int64
	for _, w := range [][2]int{{0, 20}, {20, 33}, {33, 48}} {
		o := opt
		o.RowStart, o.RowEnd = w[0], w[1]
		part, err := Significance(g, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range part.Pairs {
			if p.I < w[0] || p.I >= w[1] {
				t.Fatalf("window %v returned pair (%d,%d)", w, p.I, p.J)
			}
		}
		merged = append(merged, part.Pairs...)
		tested += part.Tested
		signif += part.Significant
	}
	if tested != full.Tested {
		t.Fatalf("strip Tested sum %d, full %d", tested, full.Tested)
	}
	if signif != full.Significant {
		t.Fatalf("strip Significant sum %d, full %d", signif, full.Significant)
	}
	if len(merged) != len(full.Pairs) {
		t.Fatalf("merged %d pairs, full %d", len(merged), len(full.Pairs))
	}
	// Sort with the canonical comparator and require exact equality.
	sortPairs(merged)
	for i, p := range merged {
		if p != full.Pairs[i] {
			t.Fatalf("pair %d: merged %+v, full %+v", i, p, full.Pairs[i])
		}
	}
}

func sortPairs(ps []SignificantPair) {
	sort.Slice(ps, func(a, b int) bool {
		return RanksBefore(ps[a].R2, ps[a].I, ps[a].J, ps[b].R2, ps[b].I, ps[b].J)
	})
}
