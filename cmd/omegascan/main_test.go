package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ldgemm/internal/popsim"
	"ldgemm/internal/seqio"
)

func writeSweepDataset(t *testing.T) string {
	t.Helper()
	m, err := popsim.Mosaic(200, 120, popsim.MosaicConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := popsim.ApplySweep(m, popsim.SweepConfig{Seed: 4, CenterSNP: 100, Radius: 40}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ldgm")
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

func TestOmegascanOutput(t *testing.T) {
	path := writeSweepDataset(t)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path, "-grid", "9", "-min-each", "10", "-max-each", "40"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "center,omega,left,right" {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines) != 11 { // header + 9 points + peak comment
		t.Fatalf("%d lines:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[10], "# peak:") {
		t.Fatalf("missing peak line: %q", lines[10])
	}
	// Every data row parses and ω ≥ 0.
	for _, line := range lines[1:10] {
		f := strings.Split(line, ",")
		if len(f) != 4 {
			t.Fatalf("bad row %q", line)
		}
		om, err := strconv.ParseFloat(f[1], 64)
		if err != nil || om < 0 {
			t.Fatalf("bad omega in %q", line)
		}
	}
}

func TestOmegascanMSInput(t *testing.T) {
	m, err := popsim.Mosaic(60, 30, popsim.MosaicConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]float64, 60)
	for i := range pos {
		pos[i] = float64(i) / 60
	}
	path := filepath.Join(t.TempDir(), "d.ms")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := seqio.WriteMS(f, []seqio.MSReplicate{{Matrix: m, Positions: pos}}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path, "-grid", "3", "-max-each", "10"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "center,omega") {
		t.Fatal("no scan output")
	}
}

func TestOmegascanErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run(nil, &out, &errBuf); err == nil {
		t.Fatal("missing -in accepted")
	}
	if err := run([]string{"-in", "/nonexistent.ldgm"}, &out, &errBuf); err == nil {
		t.Fatal("missing file accepted")
	}
	path := writeSweepDataset(t)
	if err := run([]string{"-in", path, "-min-each", "1"}, &out, &errBuf); err == nil {
		t.Fatal("min-each=1 accepted")
	}
}
