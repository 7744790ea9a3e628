package ldgemm

import (
	"math"
	"testing"
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

// TestFacadeBlockConfig passes a non-default blocking — several row and
// column blocks, two KC slabs — through Options: the counts are integers,
// so every r² must be bit-identical to the default's.
func TestFacadeBlockConfig(t *testing.T) {
	g, err := GenerateMosaic(50, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := LD(g, Options{Measures: MeasureR2, Blis: BlockConfig{MC: 16, NC: 32, KC: 2, Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	withDefault, err := LD(g, Options{Measures: MeasureR2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocked.R2 {
		if math.Float64bits(blocked.R2[i]) != math.Float64bits(withDefault.R2[i]) {
			t.Fatalf("r2[%d] = %v with MC/NC/KC 16/32/2, %v with the default", i, blocked.R2[i], withDefault.R2[i])
		}
	}
}
