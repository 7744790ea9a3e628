package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ldgemm/internal/bitmat"
)

func TestBandedStreamMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomMatrix(rng, 60, 300)
	full, err := Matrix(g, Options{Measures: MeasureR2})
	if err != nil {
		t.Fatal(err)
	}
	const band = 7
	visited := map[[2]int]bool{}
	err = BandedStream(g, BandOptions{Band: band, StripeRows: 13}, func(i, j0 int, row []float64) {
		if j0 != i {
			t.Fatalf("j0 %d != i %d", j0, i)
		}
		for t2, v := range row {
			j := i + t2
			if j-i > band || j >= 60 {
				t.Fatalf("pair (%d,%d) outside band", i, j)
			}
			if math.Abs(v-full.R2[i*60+j]) > 1e-12 {
				t.Fatalf("(%d,%d): %v vs %v", i, j, v, full.R2[i*60+j])
			}
			visited[[2]int{i, j}] = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every in-band pair visited exactly once.
	for i := 0; i < 60; i++ {
		for j := i; j <= min(i+band, 59); j++ {
			if !visited[[2]int{i, j}] {
				t.Fatalf("pair (%d,%d) not visited", i, j)
			}
		}
	}
	want := 0
	for i := 0; i < 60; i++ {
		want += min(i+band, 59) - i + 1
	}
	if len(visited) != want {
		t.Fatalf("visited %d pairs, want %d", len(visited), want)
	}
}

// TestBandedStreamBitEqualsStream: a banded row is the in-band prefix of the
// unbanded triangular scan's row, bit for bit (one epilogue, one spelling of
// fast r²), from a stripe no wider than the band needs.
func TestBandedStreamBitEqualsStream(t *testing.T) {
	g := randomMatrix(rand.New(rand.NewSource(6)), 70, 333)
	var full [][]float64
	err := Stream(g, StreamOptions{Triangular: true, StripeRows: 16}, func(_, _ int, row []float64) {
		full = append(full, append([]float64(nil), row...))
	})
	if err != nil {
		t.Fatal(err)
	}
	err = BandedStream(g, BandOptions{Band: 9, StripeRows: 11}, func(i, _ int, row []float64) {
		bitsEqual(t, "banded row", row, full[i][:len(row)])
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := StreamOptions{Triangular: true, Banded: true, Band: 9}
	if got := opt.StripeCells(11, 0, 70, 70); got != 11*(11+9) {
		t.Fatalf("banded stripe holds %d cells, want %d", got, 11*(11+9))
	}
}

func TestBandedStreamMeasures(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomMatrix(rng, 20, 100)
	full, err := Matrix(g, Options{Measures: MeasureD | MeasureDPrime})
	if err != nil {
		t.Fatal(err)
	}
	err = BandedStream(g, BandOptions{Band: 4, Options: Options{Measures: MeasureD}}, func(i, j0 int, row []float64) {
		for t2, v := range row {
			if math.Abs(v-full.D[i*20+i+t2]) > 1e-12 {
				t.Fatalf("D mismatch at (%d,%d)", i, i+t2)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	err = BandedStream(g, BandOptions{Band: 4, Options: Options{Measures: MeasureDPrime}}, func(i, j0 int, row []float64) {
		for t2, v := range row {
			if math.Abs(v-full.DPrime[i*20+i+t2]) > 1e-12 {
				t.Fatalf("D′ mismatch at (%d,%d)", i, i+t2)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBandedSumR2(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomMatrix(rng, 40, 128)
	full, err := Matrix(g, Options{Measures: MeasureR2})
	if err != nil {
		t.Fatal(err)
	}
	const band = 9
	var want float64
	var wantPairs int64
	for i := 0; i < 40; i++ {
		for j := i; j <= min(i+band, 39); j++ {
			want += full.R2[i*40+j]
			wantPairs++
		}
	}
	sum, pairs, err := BandedSumR2(g, BandOptions{Band: band, StripeRows: 11})
	if err != nil {
		t.Fatal(err)
	}
	if pairs != wantPairs || math.Abs(sum-want) > 1e-9 {
		t.Fatalf("sum %v pairs %d, want %v %d", sum, pairs, want, wantPairs)
	}
}

func TestBandedValidation(t *testing.T) {
	g := bitmat.New(10, 20)
	if err := BandedStream(g, BandOptions{Band: 0}, nil); err == nil {
		t.Fatal("band=0 accepted")
	}
	if err := BandedStream(g, BandOptions{Band: 3, StripeRows: -1}, nil); err == nil {
		t.Fatal("negative stripe accepted")
	}
	if err := BandedStream(bitmat.New(3, 0), BandOptions{Band: 2}, nil); err == nil {
		t.Fatal("zero samples accepted")
	}
}

func TestBandedBandWiderThanMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomMatrix(rng, 12, 64)
	// Band ≥ n degenerates to the full triangle.
	sumBand, pairsBand, err := BandedSumR2(g, BandOptions{Band: 100})
	if err != nil {
		t.Fatal(err)
	}
	sumFull, pairsFull, err := SumR2(g, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pairsBand != pairsFull || math.Abs(sumBand-sumFull) > 1e-9 {
		t.Fatalf("wide band: %v/%d vs %v/%d", sumBand, pairsBand, sumFull, pairsFull)
	}
}

// Property: banded results agree with PairLD for random shapes, bands,
// and stripe sizes.
func TestQuickBanded(t *testing.T) {
	f := func(seed int64, n8, b8, st8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%30) + 2
		band := int(b8%10) + 1
		stripe := int(st8%15) + 1
		g := randomMatrix(rng, n, 90)
		ok := true
		err := BandedStream(g, BandOptions{Band: band, StripeRows: stripe}, func(i, j0 int, row []float64) {
			for t2, v := range row {
				if math.Abs(v-PairLD(g, i, i+t2).R2) > 1e-12 {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
