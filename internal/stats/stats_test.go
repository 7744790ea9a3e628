package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Fatal("degenerate case wrong")
	}
}

func TestSFS(t *testing.T) {
	counts := []int{1, 1, 2, 5, 0, 6, 3}
	unfolded := SFS(counts, 6, false)
	// monomorphic 0 and 6 ignored; bins: 1→2, 2→1, 3→1, 5→1
	want := []int{0, 2, 1, 1, 0, 1}
	for i := range want {
		if unfolded[i] != want[i] {
			t.Fatalf("unfolded = %v", unfolded)
		}
	}
	folded := SFS(counts, 6, true)
	// fold: min(c, 6−c): 1,1,2,1,3 → bins 1→3, 2→1, 3→1
	wantF := []int{0, 3, 1, 1}
	for i := range wantF {
		if folded[i] != wantF[i] {
			t.Fatalf("folded = %v", folded)
		}
	}
	if SFS(counts, 1, false) != nil {
		t.Fatal("samples<2 should give nil")
	}
}

func TestChiSquarePValueKnown(t *testing.T) {
	cases := []struct {
		x    float64
		df   int
		want float64
	}{
		{0, 1, 1},
		{3.841459, 1, 0.05},   // 95th percentile, df=1
		{6.634897, 1, 0.01},   // 99th percentile, df=1
		{5.991465, 2, 0.05},   // df=2
		{18.307038, 10, 0.05}, // df=10
	}
	for _, c := range cases {
		got, err := ChiSquarePValue(c.x, c.df)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(got, c.want, 1e-6) {
			t.Fatalf("P(χ²_%d ≥ %v) = %v, want %v", c.df, c.x, got, c.want)
		}
	}
	if _, err := ChiSquarePValue(1, 0); err == nil {
		t.Fatal("df=0 accepted")
	}
	if p, _ := ChiSquarePValue(-3, 1); p != 1 {
		t.Fatalf("negative x should give 1, got %v", p)
	}
}

func TestChiSquareDF2ClosedForm(t *testing.T) {
	// For df=2 the tail is exactly exp(−x/2).
	for _, x := range []float64{0.1, 1, 2.5, 10, 30} {
		got, err := ChiSquarePValue(x, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(got, math.Exp(-x/2), 1e-10) {
			t.Fatalf("df=2 tail at %v: %v vs %v", x, got, math.Exp(-x/2))
		}
	}
}

func TestQuickChiSquareMonotone(t *testing.T) {
	f := func(a, b float64, df8 uint8) bool {
		x1 := math.Abs(a)
		x2 := math.Abs(b)
		if math.IsNaN(x1) || math.IsNaN(x2) || math.IsInf(x1, 0) || math.IsInf(x2, 0) {
			return true
		}
		x1, x2 = math.Mod(x1, 100), math.Mod(x2, 100)
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		df := int(df8%20) + 1
		p1, err1 := ChiSquarePValue(x1, df)
		p2, err2 := ChiSquarePValue(x2, df)
		if err1 != nil || err2 != nil {
			return false
		}
		return p1 >= p2-1e-12 && p1 <= 1 && p2 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
