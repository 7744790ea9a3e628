package core

import (
	"math/rand"
	"path/filepath"
	"testing"

	"ldgemm/internal/bitmat"
)

// oocSources opens a matrix as both file-backed source modes (plus the
// resident MemSource) so every test sweeps all three access paths.
func oocSources(t *testing.T, m *bitmat.Matrix) map[string]bitmat.Source {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.ldbm")
	if err := bitmat.WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	srcs := map[string]bitmat.Source{"mem": bitmat.NewMemSource(m)}
	for name, mapped := range map[string]bool{"windowed": false, "mmap": true} {
		f, err := bitmat.OpenFile(path, mapped)
		if err != nil {
			t.Fatalf("OpenFile(mapped=%v): %v", mapped, err)
		}
		t.Cleanup(func() { f.Close() })
		srcs[name] = f
	}
	return srcs
}

// collect runs a stream function and gathers every visited row, copied.
type visitRow struct {
	i, j0 int
	row   []float64
}

func collectVisits(t *testing.T, run func(visit func(i, j0 int, row []float64)) error) []visitRow {
	t.Helper()
	var got []visitRow
	if err := run(func(i, j0 int, row []float64) {
		got = append(got, visitRow{i, j0, append([]float64(nil), row...)})
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestStreamSourceMatchesStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomMatrix(rng, 151, 203)
	opts := map[string]StreamOptions{
		"triangular-exact": {Triangular: true, Exact: true, StripeRows: 32, IOPanelSNPs: 40},
		"triangular-fast":  {Triangular: true, StripeRows: 48, IOPanelSNPs: 17},
		"full-fast":        {StripeRows: 64, IOPanelSNPs: 33},
		"dprime":           {Options: Options{Measures: MeasureDPrime}, Triangular: true, Exact: true, StripeRows: 50, IOPanelSNPs: 64},
		"d":                {Options: Options{Measures: MeasureD}, StripeRows: 32, IOPanelSNPs: 200},
		"row-window":       {Triangular: true, Exact: true, StripeRows: 16, IOPanelSNPs: 25, RowStart: 33, RowEnd: 97},
		"one-panel":        {Triangular: true, Exact: true, StripeRows: 151, IOPanelSNPs: 1024},
	}
	for name, opt := range opts {
		want := collectVisits(t, func(v func(int, int, []float64)) error { return Stream(m, opt, v) })
		for srcName, src := range oocSources(t, m) {
			got := collectVisits(t, func(v func(int, int, []float64)) error { return StreamSource(src, opt, v) })
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d rows, want %d", name, srcName, len(got), len(want))
			}
			for k := range want {
				if got[k].i != want[k].i || got[k].j0 != want[k].j0 {
					t.Fatalf("%s/%s: row %d at (%d,%d), want (%d,%d)", name, srcName, k, got[k].i, got[k].j0, want[k].i, want[k].j0)
				}
				for c := range want[k].row {
					if got[k].row[c] != want[k].row[c] {
						t.Fatalf("%s/%s: row %d col %d = %v, want %v (bit-identity violated)",
							name, srcName, want[k].i, want[k].j0+c, got[k].row[c], want[k].row[c])
					}
				}
			}
		}
	}
}

func TestSourceAlleleFrequencies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomMatrix(rng, 97, 61)
	want := AlleleFrequencies(m)
	for srcName, src := range oocSources(t, m) {
		for _, panel := range []int{1, 13, 97, 1000} {
			got, err := SourceAlleleFrequencies(src, panel)
			if err != nil {
				t.Fatalf("%s/panel=%d: %v", srcName, panel, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/panel=%d: p[%d] = %v, want %v", srcName, panel, i, got[i], want[i])
				}
			}
		}
	}
}

func TestStreamSourceRejectsUnfusable(t *testing.T) {
	m := bitmat.New(8, 8)
	path := filepath.Join(t.TempDir(), "m.ldbm")
	if err := bitmat.WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	f, err := bitmat.OpenFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	opt := StreamOptions{Options: Options{Measures: MeasureR2 | KeepCounts}, Triangular: true}
	if err := StreamSource(f, opt, func(int, int, []float64) {}); err == nil {
		t.Fatal("KeepCounts out-of-core scan must be rejected")
	}
	// The MemSource path delegates to Stream, which rejects it the same way.
	if err := StreamSource(bitmat.NewMemSource(m), opt, func(int, int, []float64) {}); err == nil {
		t.Fatal("KeepCounts resident scan must be rejected")
	}
}
