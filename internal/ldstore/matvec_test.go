package ldstore

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"ldgemm/internal/popsim"
)

// The pruned store's operators are held to their serial oracle by the
// ldsparse package's tests, which build and open pruned stores through
// the names the benchmark calls. These are the ones that need this
// package's internals.

// TestSplitRows: the fan-out above foldGrain covers every row exactly
// once and hands back the first error.
func TestSplitRows(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 8} {
		hits := make([]int32, 101)
		err := split(7, 101, parts, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				hits[i]++
			}
			if lo == 7 {
				return fmt.Errorf("first part")
			}
			return nil
		})
		if err == nil || err.Error() != "first part" {
			t.Fatalf("%d parts: error %v", parts, err)
		}
		for i, h := range hits {
			if want := int32(min(1, max(0, i-6))); h != want {
				t.Fatalf("%d parts: row %d visited %d times", parts, i, h)
			}
		}
	}
}

// BenchmarkMatVec is the benchmark ledger's serve_store shape: 4096 SNPs,
// banded W = 512, τ = 0.1 over a 16-founder mosaic. resident folds the
// layout kept since open; budget0 lays every tile band out per call.
func BenchmarkMatVec(b *testing.B) {
	g, err := popsim.Mosaic(4096, 2048, popsim.MosaicConfig{Seed: 1, Founders: 16, SwitchRate: 0.005})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.ldss")
	if _, err := BuildFile(path, g, BuildOptions{TileSize: 128, Threshold: 0.1, Banded: true, Band: 512}); err != nil {
		b.Fatal(err)
	}
	x := make([]float64, g.SNPs)
	for i := range x {
		x[i] = math.Sin(float64(3*i+1)) * float64(i%7+1)
	}
	for _, mode := range []struct {
		name   string
		budget int64
	}{{"resident", residentBudget}, {"budget0", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			defer SetResidentBudgetForTest(mode.budget)()
			s, err := Open(path, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			for b.Loop() {
				if _, err := s.MatVec(x); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.NNZ())*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
		})
	}
}
