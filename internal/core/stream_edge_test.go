package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/popsim"
)

func streamMatrix(t *testing.T, snps, samples int, seed int64) *bitmat.Matrix {
	t.Helper()
	g, err := popsim.Mosaic(snps, samples, popsim.MosaicConfig{Seed: seed})
	if err != nil {
		t.Fatalf("popsim.Mosaic: %v", err)
	}
	return g
}

// collectStream materializes a full symmetric matrix from a streaming
// scan, mirroring triangular rows into both halves.
func collectStream(t *testing.T, g *bitmat.Matrix, opt StreamOptions) []float64 {
	t.Helper()
	n := g.SNPs
	out := make([]float64, n*n)
	prev := -1
	err := Stream(g, opt, func(i, j0 int, row []float64) {
		if i != prev+1 {
			t.Fatalf("stream delivered row %d after %d", i, prev)
		}
		prev = i
		if opt.Triangular && j0 != i {
			t.Fatalf("triangular row %d starts at %d", i, j0)
		}
		if !opt.Triangular && j0 != 0 {
			t.Fatalf("full row %d starts at %d", i, j0)
		}
		if len(row) != n-j0 {
			t.Fatalf("row %d has %d entries, want %d", i, len(row), n-j0)
		}
		for tt, v := range row {
			out[i*n+j0+tt] = v
			out[(j0+tt)*n+i] = v
		}
	})
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if prev != n-1 {
		t.Fatalf("stream stopped at row %d of %d", prev, n)
	}
	return out
}

// TestStreamStripeEdges runs triangular and full scans across stripe
// sizes that divide the SNP count, don't divide it, exceed it, and
// degenerate to single rows, checking every variant against the dense
// matrix.
func TestStreamStripeEdges(t *testing.T) {
	g := streamMatrix(t, 53, 48, 101) // prime SNP count: nothing divides it
	n := g.SNPs
	res, err := Matrix(g, Options{})
	if err != nil {
		t.Fatalf("Matrix: %v", err)
	}
	for _, stripe := range []int{1, 7, 53, 64, 512} {
		for _, tri := range []bool{false, true} {
			got := collectStream(t, g, StreamOptions{StripeRows: stripe, Triangular: tri})
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if d := math.Abs(got[i*n+j] - res.R2[i*n+j]); d > 1e-12 {
						t.Fatalf("stripe=%d tri=%v (%d,%d): stream %v dense %v",
							stripe, tri, i, j, got[i*n+j], res.R2[i*n+j])
					}
				}
			}
		}
	}
}

// TestStreamExactBitIdentical checks the Exact epilogue against the dense
// matrices bit for bit, for every statistic — the property the tile-store
// builder depends on.
func TestStreamExactBitIdentical(t *testing.T) {
	g := streamMatrix(t, 41, 32, 103)
	n := g.SNPs
	for _, m := range []Measure{MeasureR2, MeasureD, MeasureDPrime} {
		res, err := Matrix(g, Options{Measures: m})
		if err != nil {
			t.Fatalf("Matrix: %v", err)
		}
		var want []float64
		switch m {
		case MeasureR2:
			want = res.R2
		case MeasureD:
			want = res.D
		default:
			want = res.DPrime
		}
		got := collectStream(t, g, StreamOptions{
			Options: Options{Measures: m}, StripeRows: 16, Triangular: true, Exact: true,
		})
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Float64bits(got[i*n+j]) != math.Float64bits(want[i*n+j]) {
					t.Fatalf("measure=%d (%d,%d): stream %v, dense %v", m, i, j, got[i*n+j], want[i*n+j])
				}
			}
		}
	}
}

// TestStreamTinyInputs covers SNP counts at and below one stripe,
// including the empty matrix.
func TestStreamTinyInputs(t *testing.T) {
	for _, snps := range []int{0, 1, 2, 5} {
		var g *bitmat.Matrix
		if snps == 0 {
			g = bitmat.New(0, 8)
		} else {
			g = streamMatrix(t, snps, 24, int64(200+snps))
		}
		rows := 0
		err := Stream(g, StreamOptions{StripeRows: 512, Triangular: true}, func(i, j0 int, row []float64) {
			rows++
		})
		if err != nil {
			t.Fatalf("snps=%d: %v", snps, err)
		}
		if rows != snps {
			t.Fatalf("snps=%d: visited %d rows", snps, rows)
		}
		if snps > 0 {
			collectStream(t, g, StreamOptions{StripeRows: 3, Triangular: true})
		}
	}
}

func TestStreamErrors(t *testing.T) {
	g := streamMatrix(t, 8, 16, 107)
	if err := Stream(g, StreamOptions{StripeRows: -1}, func(int, int, []float64) {}); err == nil {
		t.Fatal("negative StripeRows accepted")
	}
	zero := &bitmat.Matrix{SNPs: 4, Samples: 0}
	if err := Stream(zero, StreamOptions{}, func(int, int, []float64) {}); err == nil {
		t.Fatal("zero samples accepted")
	}
}

// drainStripePool empties the stripe-buffer pool, so the next scan
// allocates (and the runtime zeroes) a fresh buffer.
func drainStripePool() {
	for stripePool.Get() != nil {
	}
}

// A recycled stripe buffer is never cleared, so nothing it held may reach
// a visitor: for each scan mode, a scan that follows a scan of a different
// matrix — with the pooled buffer overwritten by NaN in between — must
// deliver the bits a scan into a fresh buffer delivers, resident and out
// of core.
func TestStreamRecycledStripeIsNeverRead(t *testing.T) {
	g := streamMatrix(t, 150, 90, 7)
	other := streamMatrix(t, 150, 90, 8)
	modes := map[string]StreamOptions{
		"full":       {StripeRows: 40},
		"triangular": {Triangular: true, StripeRows: 40},
		"row-window": {Triangular: true, Exact: true, StripeRows: 16, RowStart: 21, RowEnd: 83},
		"banded":     {Triangular: true, Banded: true, Band: 19, StripeRows: 32},
	}
	for name, opt := range modes {
		scans := map[string]func(*bitmat.Matrix) []visitRow{
			"resident": func(m *bitmat.Matrix) []visitRow {
				return collectVisits(t, func(v func(i, j0 int, row []float64)) error { return Stream(m, opt, v) })
			},
			"out-of-core": func(m *bitmat.Matrix) []visitRow {
				return collectVisits(t, func(v func(i, j0 int, row []float64)) error {
					return StreamSource(sliceBacked(t, m), opt, v)
				})
			},
		}
		for where, scan := range scans {
			drainStripePool()
			fresh := scan(g)
			scan(other)
			// Hand the next scan buffers that are poisoned throughout and
			// larger than it needs (several: under the race detector a Put
			// may be dropped).
			drainStripePool()
			for i := 0; i < 4; i++ {
				b := getStripe(150 * 150)
				for j := range *b {
					(*b)[j] = math.NaN()
				}
				stripePool.Put(b)
			}
			recycled := scan(g)
			if len(recycled) != len(fresh) {
				t.Fatalf("%s %s: %d rows, fresh scan delivered %d", name, where, len(recycled), len(fresh))
			}
			for r := range fresh {
				if recycled[r].i != fresh[r].i || recycled[r].j0 != fresh[r].j0 {
					t.Fatalf("%s %s: row %d is (%d,%d), fresh scan delivered (%d,%d)", name, where, r,
						recycled[r].i, recycled[r].j0, fresh[r].i, fresh[r].j0)
				}
				bitsEqual(t, name+" "+where, recycled[r].row, fresh[r].row)
			}
		}
	}
}

// TestStreamStripePooled: stripes of one height are interchangeable in the
// pool whatever row window they were taken for — a scan low in the matrix,
// whose rows are long, reuses the buffer a scan high in it left, as a served
// top over one window follows a top over another. The second scan must
// allocate less than its stripe.
func TestStreamStripePooled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	const n, rows = 700, 128
	g := streamMatrix(t, n, 64, 11)
	scan := func(lo int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		opt := StreamOptions{Triangular: true, StripeRows: rows, RowStart: lo, RowEnd: lo + rows}
		if err := Stream(g, opt, func(int, int, []float64) {}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	drainStripePool()
	stripe := uint64(rows * n * 8)
	if first := scan(n - rows); first < stripe {
		t.Fatalf("the first scan allocated %d bytes: less than the %d of a stripe at row 0", first, stripe)
	}
	if second := scan(0); second >= stripe/2 {
		t.Fatalf("a scan of rows 0..%d after one of rows %d..%d allocated %d bytes: its %d-byte stripe was not the pooled one",
			rows, n-rows, n, second, stripe)
	}
	// An unwindowed scan's stripe is what it always was.
	drainStripePool()
	if err := Stream(g, StreamOptions{Triangular: true, StripeRows: rows}, func(int, int, []float64) {}); err != nil {
		t.Fatal(err)
	}
	if b := stripePool.Get().(*[]float64); cap(*b) != rows*n {
		t.Fatalf("an unwindowed scan pooled a stripe of %d cells, want %d", cap(*b), rows*n)
	}
}
