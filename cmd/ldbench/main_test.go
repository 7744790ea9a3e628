package main

import (
	"bytes"
	"strings"
	"testing"
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
