package ldgemm

import (
	"math"
	"testing"
	"time"
)

// TestFacadeAnalyses drives the analysis layer end to end through the
// public API: pruning → blocks → significance, on one simulated dataset.
func TestFacadeAnalyses(t *testing.T) {
	g, err := GenerateMosaic(300, 800, 99)
	if err != nil {
		t.Fatal(err)
	}

	pruned, err := Prune(g, PruneOptions{WindowSNPs: 40, StepSNPs: 8, R2Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.Kept)+len(pruned.Removed) != 300 {
		t.Fatal("prune partition broken")
	}
	if len(pruned.Removed) == 0 {
		t.Fatal("mosaic data should have correlated SNPs to prune")
	}

	blocks, err := Blocks(g, BlockOptions{DPrimeThreshold: 0.9, MinStrongFrac: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if b.Start >= b.End {
			t.Fatalf("bad block %+v", b)
		}
	}

	sig, err := Significance(g, SignificanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sig.Tested != 300*299/2 {
		t.Fatalf("tested %d", sig.Tested)
	}
}

func TestFacadeTune(t *testing.T) {
	res, err := Tune(TuneOptions{SNPs: 128, Samples: 512, Budget: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// The tuned config must work when passed through Options.
	g, err := GenerateMosaic(50, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	withTuned, err := LD(g, Options{Measures: MeasureR2, Blis: res.Config})
	if err != nil {
		t.Fatal(err)
	}
	withDefault, err := LD(g, Options{Measures: MeasureR2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range withTuned.R2 {
		if math.Abs(withTuned.R2[i]-withDefault.R2[i]) > 1e-12 {
			t.Fatal("tuned config changed results")
		}
	}
}
