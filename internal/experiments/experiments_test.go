package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"ldgemm/internal/blis"
	"ldgemm/internal/kernel"
	"ldgemm/internal/popsim"
)

// fastConfig keeps experiment tests quick: tiny dims, one rep.
func fastConfig() Config {
	return Config{
		Scale:           64,
		Threads:         []int{1, 2},
		Reps:            1,
		CalibrationTime: 10 * time.Millisecond,
	}
}

func TestFig3Shape(t *testing.T) {
	tbl, err := Fig3(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 { // 3 sizes × 5 k values
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		frac, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		// The denominator is the peak of the engine the driver runs (the
		// default micro-kernel on L1-resident panels where that is a vector
		// tile), so nothing the driver does can beat it: 100 % plus the
		// noise of a 10 ms calibration.
		if frac <= 0 || frac > 110 {
			t.Fatalf("implausible peak fraction %v%% (%s)", frac, tbl.Title)
		}
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 3") || !strings.Contains(buf.String(), "peak: ") {
		t.Fatalf("title %q must name the figure and the peak it divides by", tbl.Title)
	}
}

func TestFig4Shape(t *testing.T) {
	tbl, err := Fig4(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if frac, err := strconv.ParseFloat(row[4], 64); err != nil || frac <= 0 || frac > 110 {
			t.Fatalf("implausible peak fraction %q (%v; %s)", row[4], err, tbl.Title)
		}
	}
}

func TestComparisonTable(t *testing.T) {
	tbl, err := ComparisonTable(popsim.DatasetA, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		// All numeric cells must parse; the speedup claim itself only
		// holds at realistic sizes (see TestSpeedupAtModerateScale).
		for c := 1; c < len(row); c++ {
			if _, err := strconv.ParseFloat(row[c], 64); err != nil {
				t.Fatalf("cell %q does not parse: %v", row[c], err)
			}
		}
	}
}

func TestFig5(t *testing.T) {
	cfg := fastConfig()
	tbl, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 2 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	if !strings.Contains(tbl.Title, "Figure 5") {
		t.Fatal("missing title")
	}
}

func TestSIMDTable(t *testing.T) {
	tbl, err := SIMD(Config{Peak: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 { // scalar + 3 widths × 2 scenarios
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	// Every no-HW SIMD row must have speedup ≤ 1 (the paper's claim).
	for _, row := range tbl.Rows {
		if !strings.Contains(row[1], "extract/insert") {
			continue
		}
		sp, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if sp > 1.001 {
			t.Fatalf("SIMD without HW popcount shows speedup %v", sp)
		}
	}
}

func TestSIMDHardwareTable(t *testing.T) {
	tbl, err := SIMDHardware(Config{Peak: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 { // kc = 8, 32, 256
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[4] != "8.00" {
			t.Fatalf("model T/T_HW at v = 8 printed as %q", row[4])
		}
		if row[3] == "-" {
			continue // no tile on this host: the row says so
		}
		// The paper's point, measured: with a hardware vector popcount the
		// wide kernel wins. Far below the model's 8× so a noisy host passes.
		if sp, err := strconv.ParseFloat(row[3], 64); err != nil || sp < 2 {
			t.Fatalf("tile over scalar at kc = %s: %q (%v)", row[0], row[3], err)
		}
	}
}

func TestGapsTable(t *testing.T) {
	tbl, err := Gaps(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	slow, err := strconv.ParseFloat(tbl.Rows[1][4], 64)
	if err != nil {
		t.Fatal(err)
	}
	if slow < 1 || slow > 30 {
		t.Fatalf("implausible masked slowdown %v", slow)
	}
}

func TestFSMTable(t *testing.T) {
	tbl, err := FSM(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := strconv.ParseFloat(tbl.Rows[1][3], 64)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 1 {
		t.Fatalf("FSM faster than ISM: %v", ratio)
	}
}

func TestTanimotoTable(t *testing.T) {
	tbl, err := Tanimoto(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
}

func TestAblationTables(t *testing.T) {
	tbl, err := Ablation(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := 2 + len(kernel.Fixed) // vector, driver, the Go kernels alone
	if kernel.Default.Lanes > 1 {
		want++ // and the tile alone
	}
	if len(tbl.Rows) != want {
		t.Fatalf("%d rows, want %d", len(tbl.Rows), want)
	}
	pc, err := PopcountAblation(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.Rows) != 4 {
		t.Fatalf("%d popcount rows", len(pc.Rows))
	}
}

// TestAblationDriverRowNamesItsRoute pins that the ablation's driver row
// is labelled with the variant the driver reported for the calls it timed
// (its own are the table's last driver calls), on the tile's route and on
// the portable one. A row named for a register shape while the driver ran
// that shape's per-cell route ("4x4" running "4x4-runs") is what it guards
// against.
func TestAblationDriverRowNamesItsRoute(t *testing.T) {
	check := func(t *testing.T) {
		tbl, err := Ablation(fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		ran := blis.ReadStats().Variant
		rows := 0
		for _, row := range tbl.Rows {
			if strings.HasPrefix(row[0], driverRowPrefix) {
				rows++
				if row[0] != driverRowPrefix+ran {
					t.Fatalf("driver row %q, but the driver ran %s", row[0], ran)
				}
			}
		}
		if rows != 1 {
			t.Fatalf("%d driver rows in %v", rows, tbl.Rows)
		}
	}
	t.Run("host-default", check)
	if kernel.Default.Lanes > 1 {
		defer kernel.DisableVectorTileForTest()()
		t.Run("portable", check)
	}
}

// TestSpeedupAtModerateScale checks the paper's headline ordering (GEMM
// faster than both baselines) at a size where blocking pays. Kept modest
// so the suite stays fast.
func TestSpeedupAtModerateScale(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale comparison skipped in -short")
	}
	cfg := Config{Scale: 8, Threads: []int{1}, Reps: 1, CalibrationTime: 20 * time.Millisecond}
	tbl, err := ComparisonTable(popsim.DatasetB, cfg) // 1250 SNPs × 1250 samples
	if err != nil {
		t.Fatal(err)
	}
	row := tbl.Rows[0]
	vsPlink, _ := strconv.ParseFloat(row[7], 64)
	vsOmega, _ := strconv.ParseFloat(row[8], 64)
	// The PLINK gap is algorithmic (genotype plane decomposition ≈ 10
	// popcounts/word) and shows at any size. The OmegaPlus gap combines
	// ILP (micro-kernel accumulator fan-out) with cache blocking; on
	// hosts whose LLC swallows the whole matrix only the ILP part is
	// visible, so the bar here is parity, with the full-scale gap
	// recorded in EXPERIMENTS.md.
	if vsPlink <= 1.5 || vsOmega <= 0.8 {
		t.Fatalf("expected GEMM to dominate at scale 8: vs PLINK %v, vs Omega %v", vsPlink, vsOmega)
	}
}

func TestTunedTable(t *testing.T) {
	cfg := fastConfig()
	tbl, err := Tuned(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if _, err := strconv.ParseFloat(row[5], 64); err != nil {
			t.Fatalf("time cell %q", row[5])
		}
	}
}

func TestBandedTable(t *testing.T) {
	tbl, err := Banded(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	full, _ := strconv.ParseInt(tbl.Rows[0][1], 10, 64)
	band, _ := strconv.ParseInt(tbl.Rows[2][1], 10, 64)
	if band >= full {
		t.Fatalf("band pairs %d not below full %d", band, full)
	}
}
