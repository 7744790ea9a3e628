package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldgemm/internal/blis"
)

func TestParseThreads(t *testing.T) {
	got, err := parseThreads("1,2, 12")
	if err != nil || len(got) != 3 || got[2] != 12 {
		t.Fatalf("parseThreads: %v %v", got, err)
	}
	for _, bad := range []string{"", "0", "-1", "x", "1,,y"} {
		if _, err := parseThreads(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestLdbenchUnknownExperiment(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-scale", "64", "nonsense"}, &out, &errBuf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestLdbenchNoExperiment(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run(nil, &out, &errBuf); err == nil {
		t.Fatal("empty experiment list accepted")
	}
	if !strings.Contains(errBuf.String(), "usage: ldbench") {
		t.Fatal("usage not printed")
	}
}

func TestLdbenchJSONBenchmark(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_ld.json")
	var out, errBuf bytes.Buffer
	// -json with no experiments is a pure benchmark run.
	if err := run([]string{"-scale", "64", "-threads", "1,2", "-json", path}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SNPs < 64 || rep.Samples < 128 || rep.Words < 1 {
		t.Fatalf("implausible shape %+v", rep)
	}
	if rep.ReferenceTriplesPerSec <= 0 {
		t.Fatalf("reference rate %v", rep.ReferenceTriplesPerSec)
	}
	if len(rep.Runs) != 2 || rep.Runs[0].Threads != 1 || rep.Runs[1].Threads != 2 {
		t.Fatalf("runs %+v", rep.Runs)
	}
	for _, r := range rep.Runs {
		if r.TriplesPerSec <= 0 || r.SpeedupVsReference <= 0 {
			t.Fatalf("implausible run %+v", r)
		}
	}
	// The kernel-dispatch section covers the k grid, with identity and
	// dispatch labels on every point.
	if len(rep.Kernel) != 4 {
		t.Fatalf("kernel points %+v", rep.Kernel)
	}
	for i, k := range []int{4, 16, 64, 256} {
		p := rep.Kernel[i]
		if p.KWords != k || p.Samples != k*64 {
			t.Fatalf("kernel point %d shape %+v", i, p)
		}
		if p.Variant == "" || p.Popcount == "" {
			t.Fatalf("kernel point %d missing dispatch labels: %+v", i, p)
		}
		if p.ScalarGcellsPerSec <= 0 || p.AutoGcellsPerSec <= 0 || p.Speedup <= 0 {
			t.Fatalf("kernel point %d rates %+v", i, p)
		}
	}
}

func TestLdbenchWriteTuneProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.json")
	var out, errBuf bytes.Buffer
	err := run([]string{"-write-tune-profile", path, "-tune-budget", "200ms"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "profile written to") {
		t.Fatalf("no tune summary: %s", errBuf.String())
	}
	p, err := blis.LoadProfile(path)
	if err != nil {
		t.Fatalf("written profile does not load back: %v", err)
	}
	if _, err := p.Config(); err != nil {
		t.Fatal(err)
	}
}

func TestLdbenchSIMDTable(t *testing.T) {
	// simd is deterministic and fast: a real end-to-end run.
	var out, errBuf bytes.Buffer
	if err := run([]string{"-scale", "64", "simd"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Section V", "scalar (Section IV kernel)", "hardware vector POPCNT",
		"Section V with a hardware vector popcount", "model T/T_HW (v = 8)"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in output", want)
		}
	}
	if !strings.Contains(errBuf.String(), "calibrating host peak") {
		t.Fatal("no calibration message")
	}
}

func TestLdbenchCSV(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-scale", "64", "-csv", "simd"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(out.String(), "\n", 2)[0]
	if !strings.Contains(first, ",") || strings.Contains(first, "|") {
		t.Fatalf("not CSV: %q", first)
	}
}

func TestLdbenchTinyComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison run skipped in -short")
	}
	var out, errBuf bytes.Buffer
	if err := run([]string{"-scale", "64", "-threads", "1", "-reps", "1", "table1"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "GEMM vs PLINK") {
		t.Fatalf("missing comparison columns:\n%s", out.String())
	}
}

// TestLdbenchStoreJSON: the out-of-core store-build benchmark runs end to
// end at smoke scale and reports a coherent shape — panels actually read,
// a positive build rate, and the budget arithmetic wired through.
func TestLdbenchStoreJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_store.json")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-scale", "16", "-store-json", path}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep storeReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SNPs < 512 || rep.Samples < 2048 || rep.Words < 1 {
		t.Fatalf("implausible shape %+v", rep)
	}
	if rep.MatrixBytes != int64(rep.SNPs)*int64(rep.Words)*8 {
		t.Fatalf("matrix bytes %d for %d×%d words", rep.MatrixBytes, rep.SNPs, rep.Words)
	}
	if rep.BudgetBytes != rep.MatrixBytes/2 {
		t.Fatalf("budget %d, matrix %d", rep.BudgetBytes, rep.MatrixBytes)
	}
	if rep.BuildSeconds <= 0 || rep.TriplesPerSec <= 0 || rep.PairsPerSec <= 0 {
		t.Fatalf("implausible rates %+v", rep)
	}
	if rep.Tiles < 1 || rep.FileBytes <= 0 {
		t.Fatalf("implausible store %+v", rep)
	}
	// Windowed reads mean the prefetcher must have fetched real panels.
	if rep.PanelsRead == 0 || rep.PanelBytesRead == 0 {
		t.Fatalf("no panel I/O recorded: %+v", rep)
	}
	if rep.AllocBytes == 0 {
		t.Fatal("no allocation recorded")
	}
}

func TestLdbenchSparseJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sparse.json")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-scale", "32", "-sparse-json", path}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep sparseReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SNPs < 512 || rep.Samples < 256 || rep.Words < 1 {
		t.Fatalf("implausible shape %+v", rep)
	}
	if !rep.MatVecExact {
		t.Fatal("matvec was not verified bit-identical")
	}
	if rep.RatiosEnforced {
		t.Fatalf("%d SNPs should not enforce the asymptotic ratios", rep.SNPs)
	}
	if rep.NNZ <= 0 || rep.SparseStoreBytes <= 0 || rep.DenseStoreBytes <= rep.SparseStoreBytes {
		t.Fatalf("implausible store sizes %+v", rep)
	}
	if rep.SizeRatio <= 1 || rep.BandSpeedup <= 0 || rep.MatVecsPerSec <= 0 {
		t.Fatalf("implausible rates %+v", rep)
	}
	if !strings.Contains(errBuf.String(), "size ratio") {
		t.Fatalf("missing summary line in stderr: %q", errBuf.String())
	}
}
