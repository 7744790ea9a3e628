package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/core"
	"ldgemm/internal/popsim"
	"ldgemm/internal/seqio"
)

// writeDataset writes a small deterministic matrix and returns its path.
func writeDataset(t *testing.T, snps, samples int) string {
	t.Helper()
	m, err := popsim.Mosaic(snps, samples, popsim.MosaicConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return writeMatrix(t, m)
}

func writeMatrix(t *testing.T, m *bitmat.Matrix) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.ldgm")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := seqio.WriteBinary(f, m); err != nil {
		t.Fatal(err)
	}
	return path
}

func runLdcalc(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out, errBuf bytes.Buffer
	err := run(args, &out, &errBuf)
	return out.String(), err
}

func TestLdcalcSummary(t *testing.T) {
	path := writeDataset(t, 40, 50)
	out, err := runLdcalc(t, "-in", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SNPs:               40", "sequences:          50", "mean off-diag r²"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestLdcalcTop(t *testing.T) {
	path := writeDataset(t, 30, 60)
	out, err := runLdcalc(t, "-in", path, "-top", "3")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "snp_i,snp_j,value,chi2,p_value" {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("%d lines", len(lines))
	}
}

// TestLdcalcTopTiesCanonical: on a cohort of eight SNPs each present three
// times, interleaved, most values are tied and the cut at 20 falls inside
// the 24 pairs of copies (r² = 1). -top must print exactly the first 20
// off-diagonal pairs of the same stream in core.RanksBefore order over
// |value|, the order /api/ld/top ranks in.
func TestLdcalcTopTiesCanonical(t *testing.T) {
	const bases, copies, k = 8, 3, 20
	base, err := popsim.Mosaic(bases, 64, popsim.MosaicConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	m := bitmat.New(bases*copies, base.Samples)
	for c := 0; c < copies; c++ {
		for b := 0; b < bases; b++ {
			copy(m.SNP(c*bases+b), base.SNP(b))
		}
	}
	path := writeMatrix(t, m)
	for _, c := range []struct {
		measure string
		meas    core.Measure
	}{{"r2", core.MeasureR2}, {"d", core.MeasureD}} {
		type hit struct {
			i, j int
			v    float64
		}
		var all []hit
		sopt := core.StreamOptions{Options: core.Options{Measures: c.meas}, Triangular: true}
		if err := core.Stream(m, sopt, func(i, j0 int, row []float64) {
			for x, v := range row {
				if j0+x != i {
					all = append(all, hit{i, j0 + x, v})
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		sort.Slice(all, func(a, b int) bool {
			return core.RanksBefore(math.Abs(all[a].v), all[a].i, all[a].j, math.Abs(all[b].v), all[b].i, all[b].j)
		})
		if math.Abs(all[k-1].v) != math.Abs(all[k].v) {
			t.Fatalf("%s: the cut at %d is not inside a tie", c.measure, k)
		}

		out, err := runLdcalc(t, "-in", path, "-measure", c.measure, "-top", strconv.Itoa(k))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")[1:]
		if len(lines) != k {
			t.Fatalf("%s: %d pairs, want %d", c.measure, len(lines), k)
		}
		for r, line := range lines {
			want := fmt.Sprintf("%d,%d,%.6f,", all[r].i, all[r].j, all[r].v)
			if !strings.HasPrefix(line, want) {
				t.Fatalf("%s: rank %d is %q, want %q…", c.measure, r, line, want)
			}
		}
	}
}

func TestLdcalcMatrixDimensions(t *testing.T) {
	path := writeDataset(t, 12, 30)
	out, err := runLdcalc(t, "-in", path, "-matrix")
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(out), "\n")
	if len(rows) != 12 || len(strings.Split(rows[0], ",")) != 12 {
		t.Fatalf("matrix shape %dx%d", len(rows), len(strings.Split(rows[0], ",")))
	}
}

func TestLdcalcPruneBlocks(t *testing.T) {
	path := writeDataset(t, 60, 80)
	out, err := runLdcalc(t, "-in", path, "-prune", "-prune-window", "20", "-blocks")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pruning: kept", "haplotype blocks"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestLdcalcLDOutParses(t *testing.T) {
	path := writeDataset(t, 25, 70)
	out, err := runLdcalc(t, "-in", path, "-ld-out", "-ld-floor", "0.05")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := seqio.ReadLD(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.R2 < 0.05 && r.R2 > -0.05 {
			t.Fatalf("record below floor: %+v", r)
		}
	}
}

func TestLdcalcOutFile(t *testing.T) {
	path := writeDataset(t, 10, 20)
	outPath := filepath.Join(t.TempDir(), "res.txt")
	if _, err := runLdcalc(t, "-in", path, "-out", outPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "SNPs:") {
		t.Fatalf("file output %q", data)
	}
}

func TestLdcalcErrors(t *testing.T) {
	if _, err := runLdcalc(t); err == nil {
		t.Fatal("missing -in accepted")
	}
	if _, err := runLdcalc(t, "-in", "/nonexistent.ldgm"); err == nil {
		t.Fatal("missing file accepted")
	}
	path := writeDataset(t, 5, 10)
	if _, err := runLdcalc(t, "-in", path, "-measure", "zeta"); err == nil {
		t.Fatal("bad measure accepted")
	}
	if _, err := runLdcalc(t, "-in", "x.weird"); err == nil {
		t.Fatal("unknown extension accepted")
	}
}
