package harness

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestCalibratePeakPositiveAndStable(t *testing.T) {
	p1 := CalibratePeak(20 * time.Millisecond)
	p2 := CalibratePeak(20 * time.Millisecond)
	if p1 <= 0 || p2 <= 0 {
		t.Fatalf("non-positive peak: %v %v", p1, p2)
	}
	// Two calibrations on an idle core should agree within 2×. (Loose on
	// purpose: CI machines are noisy.)
	ratio := p1 / p2
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("unstable calibration: %v vs %v", p1, p2)
	}
	// Sanity: a modern core issues between 10⁷ and 10¹¹ triples/second.
	if p1 < 1e7 || p1 > 1e11 {
		t.Fatalf("implausible peak %v triples/s", p1)
	}
}

func TestMeasurement(t *testing.T) {
	m := Measurement{Elapsed: time.Second, WordTriples: 1000}
	if m.TriplesPerSecond() != 1000 {
		t.Fatalf("rate %v", m.TriplesPerSecond())
	}
	if m.PeakFraction(2000) != 0.5 {
		t.Fatalf("fraction %v", m.PeakFraction(2000))
	}
	if (Measurement{}).TriplesPerSecond() != 0 {
		t.Fatal("zero-duration rate")
	}
	if m.PeakFraction(0) != 0 {
		t.Fatal("zero peak fraction")
	}
}

func TestTimeAndBest(t *testing.T) {
	calls := 0
	m, err := Best(3, 42, func() error {
		calls++
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || m.WordTriples != 42 || m.Elapsed < time.Millisecond/2 {
		t.Fatalf("calls=%d m=%+v", calls, m)
	}
	wantErr := errors.New("boom")
	if _, err := Time(1, func() error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("Time error = %v", err)
	}
	if _, err := Best(0, 1, func() error { return nil }); err == nil {
		t.Fatal("reps=0 accepted")
	}
	if _, err := Best(2, 1, func() error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatal("Best swallowed error")
	}
}

// TestInterleaved: every round runs each fn once, in order, and each fn
// keeps its own fastest run.
func TestInterleaved(t *testing.T) {
	var order []int
	fns := []func() error{
		func() error { order = append(order, 0); return nil },
		func() error { order = append(order, 1); time.Sleep(time.Millisecond); return nil },
	}
	best, err := Interleaved(3, fns...)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 0, 1, 0, 1}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("run order %v, want %v", order, want)
	}
	if len(best) != 2 || best[1] < time.Millisecond/2 || best[0] > best[1] {
		t.Fatalf("best %v", best)
	}
	wantErr := errors.New("boom")
	if _, err := Interleaved(2, fns[0], func() error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("Interleaved error = %v", err)
	}
	if _, err := Interleaved(0, fns...); err == nil {
		t.Fatal("reps=0 accepted")
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{
		Title:   "Table I",
		Headers: []string{"Threads", "GEMM", "Speedup"},
	}
	tbl.AddRow("1", "1.89", "7.48")
	tbl.AddRow("12", "0.62", "8.43")
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table I", "Threads", "GEMM", "7.48", "0.62"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
	// Columns aligned: both data rows have the same length.
	if len(lines[3]) != len(lines[4]) || len(lines[1]) != len(lines[3]) {
		t.Fatalf("misaligned rows:\n%s", out)
	}
}

func TestTableRenderRowWidthMismatch(t *testing.T) {
	tbl := Table{Headers: []string{"a", "b"}}
	tbl.AddRow("1")
	if err := tbl.Render(&bytes.Buffer{}); err == nil {
		t.Fatal("ragged row accepted")
	}
	if err := tbl.CSV(&bytes.Buffer{}); err == nil {
		t.Fatal("ragged CSV row accepted")
	}
}

func TestTableCSV(t *testing.T) {
	tbl := Table{Headers: []string{"x", "y"}}
	tbl.AddRow("1", "2")
	var buf bytes.Buffer
	if err := tbl.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "x,y\n1,2\n" {
		t.Fatalf("CSV = %q", got)
	}
}

func TestF(t *testing.T) {
	if F(3.14159, 2) != "3.14" {
		t.Fatalf("F = %q", F(3.14159, 2))
	}
	if F(10, 0) != "10" {
		t.Fatalf("F = %q", F(10, 0))
	}
}
