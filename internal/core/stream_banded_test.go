package core

import (
	"math"
	"testing"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
)

// collectBanded materializes a banded triangular scan into a dense
// symmetric matrix, with math.NaN marking cells the scan never
// delivered, and checks the delivered row geometry against the band.
func collectBanded(t *testing.T, g *bitmat.Matrix, opt StreamOptions, ooc bool) []float64 {
	t.Helper()
	n := g.SNPs
	out := make([]float64, n*n)
	for i := range out {
		out[i] = math.NaN()
	}
	visit := func(i, j0 int, row []float64) {
		if j0 != i {
			t.Fatalf("triangular row %d starts at %d", i, j0)
		}
		want := n - i
		if opt.Banded {
			want = min(n, i+opt.Band+1) - i
		}
		if len(row) != want {
			t.Fatalf("row %d has %d entries, want %d", i, len(row), want)
		}
		for tt, v := range row {
			out[i*n+j0+tt] = v
			out[(j0+tt)*n+i] = v
		}
	}
	var err error
	if ooc {
		err = StreamSource(sliceBacked(t, g), opt, visit)
	} else {
		err = Stream(g, opt, visit)
	}
	if err != nil {
		t.Fatalf("banded stream: %v", err)
	}
	return out
}

// sliceBacked wraps g in a non-MemSource, so StreamSource fetches it in
// IOPanelSNPs-wide panels as it would a file.
func sliceBacked(t *testing.T, g *bitmat.Matrix) bitmat.Source {
	t.Helper()
	src, err := bitmat.NewSliceSource(bitmat.NewMemSource(g), 0, g.SNPs)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestBandedStreamMatchesDense: every in-band cell of a banded scan is
// bit-identical to the unbanded scan's, for every measure, both exact
// and fast epilogues, resident and out-of-core — and W ≥ n degenerates
// to exactly the dense result with nothing missing.
func TestBandedStreamMatchesDense(t *testing.T) {
	g := streamMatrix(t, 61, 44, 77) // prime SNP count
	n := g.SNPs
	for _, meas := range []Measure{MeasureR2, MeasureD, MeasureDPrime} {
		for _, exact := range []bool{false, true} {
			base := StreamOptions{Triangular: true, Exact: exact, StripeRows: 16}
			base.Measures = meas
			dense := collectStream(t, g, base)
			for _, ooc := range []bool{false, true} {
				for _, W := range []int{0, 1, 7, 16, 23, n - 1, n, 3 * n} {
					opt := base
					opt.Banded, opt.Band = true, W
					opt.IOPanelSNPs = 8
					got := collectBanded(t, g, opt, ooc)
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							v := got[i*n+j]
							dist := max(i-j, j-i)
							if dist <= W {
								if math.Float64bits(v) != math.Float64bits(dense[i*n+j]) {
									t.Fatalf("meas=%d exact=%v ooc=%v W=%d: cell (%d,%d) = %v, dense %v",
										meas, exact, ooc, W, i, j, v, dense[i*n+j])
								}
							} else if !math.IsNaN(v) {
								t.Fatalf("meas=%d exact=%v ooc=%v W=%d: out-of-band cell (%d,%d) delivered (%v)",
									meas, exact, ooc, W, i, j, v)
							}
						}
					}
				}
			}
		}
	}
}

// TestBandedSkipCounters: a narrow band on a matrix much wider than the
// band must skip panels and cells; W ≥ n must skip nothing.
func TestBandedSkipCounters(t *testing.T) {
	g := streamMatrix(t, 96, 40, 5)
	run := func(W int, ooc bool) (panels, cells uint64) {
		before := blis.ReadStats()
		opt := StreamOptions{Triangular: true, StripeRows: 16, Banded: true, Band: W, IOPanelSNPs: 8}
		var err error
		sink := func(i, j0 int, row []float64) {}
		if ooc {
			err = StreamSource(sliceBacked(t, g), opt, sink)
		} else {
			err = Stream(g, opt, sink)
		}
		if err != nil {
			t.Fatal(err)
		}
		after := blis.ReadStats()
		return after.BandPanelsSkipped - before.BandPanelsSkipped,
			after.BandCellsSkipped - before.BandCellsSkipped
	}
	for _, ooc := range []bool{false, true} {
		if p, c := run(4, ooc); p == 0 || c == 0 {
			t.Fatalf("ooc=%v: narrow band skipped %d panels / %d cells, want > 0", ooc, p, c)
		}
		if p, c := run(g.SNPs, ooc); p != 0 || c != 0 {
			t.Fatalf("ooc=%v: W=n skipped %d panels / %d cells, want 0", ooc, p, c)
		}
	}
}

// TestBandSkipCountersAgree: the band-skip counters read the same whatever
// the source and its fetch width — panels counted IOPanelSNPs wide, and
// every skipped cell noted, also where a stripe's band edge falls inside
// the last panel of its walk (stripe 96 of 100 SNPs at W = 3).
func TestBandSkipCountersAgree(t *testing.T) {
	g := streamMatrix(t, 100, 40, 5)
	n := g.SNPs
	skips := func(scan func(StreamOptions, func(int, int, []float64)) error, opt StreamOptions) [2]uint64 {
		before := blis.ReadStats()
		if err := scan(opt, func(int, int, []float64) {}); err != nil {
			t.Fatal(err)
		}
		after := blis.ReadStats()
		return [2]uint64{after.BandPanelsSkipped - before.BandPanelsSkipped, after.BandCellsSkipped - before.BandCellsSkipped}
	}
	for _, W := range []int{0, 3, 4, 17, n - 1, n} {
		opt := StreamOptions{Triangular: true, StripeRows: 16, Banded: true, Band: W, IOPanelSNPs: 8}
		var cells uint64
		for i0 := 0; i0 < n; i0 += 16 {
			rows := min(16, n-i0)
			cells += uint64(rows * (n - opt.stripeColEnd(i0, rows, n)))
		}
		resident := skips(func(o StreamOptions, v func(int, int, []float64)) error { return Stream(g, o, v) }, opt)
		paneled := skips(func(o StreamOptions, v func(int, int, []float64)) error { return StreamSource(sliceBacked(t, g), o, v) }, opt)
		if resident != paneled {
			t.Fatalf("W=%d: resident scan skipped %d panels / %d cells, paneled %d / %d",
				W, resident[0], resident[1], paneled[0], paneled[1])
		}
		if resident[1] != cells {
			t.Fatalf("W=%d: %d cells noted skipped, want %d", W, resident[1], cells)
		}
	}
}

// TestBandedStreamOptionsValidation: StreamOptions.Banded requires
// triangular and no KeepCounts, and a negative band is rejected, on both
// the resident and source paths.
func TestBandedStreamOptionsValidation(t *testing.T) {
	g := streamMatrix(t, 24, 16, 1)
	sink := func(i, j0 int, row []float64) {}
	if err := Stream(g, StreamOptions{Banded: true, Band: 2}, sink); err == nil {
		t.Fatal("banded without Triangular accepted")
	}
	if err := Stream(g, StreamOptions{Triangular: true, Banded: true, Band: -1}, sink); err == nil {
		t.Fatal("negative band accepted")
	}
	bad := StreamOptions{Triangular: true, Banded: true, Band: 2}
	bad.Measures = MeasureR2 | KeepCounts
	if err := Stream(g, bad, sink); err == nil {
		t.Fatal("banded with KeepCounts accepted")
	}
	if err := StreamSource(sliceBacked(t, g), StreamOptions{Banded: true, Band: 2}, sink); err == nil {
		t.Fatal("out-of-core banded without Triangular accepted")
	}
}
