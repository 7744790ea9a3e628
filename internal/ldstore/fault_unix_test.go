//go:build unix

package ldstore

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ldgemm/internal/core"
)

// TestTruncatedUnderOpenStore: a mapped store whose file is truncated
// under it faults on the pages it lost; every query recovers that fault
// into an error, checked tiles and unchecked alike, nothing crashes, and
// the goroutines a query starts all return. The pruned store runs with no
// residency budget, so its operators read their tiles on every call.
func TestTruncatedUnderOpenStore(t *testing.T) {
	defer SetResidentBudgetForTest(0)()
	g := testMatrix(t, 96, 40, 37)
	x := make([]float64, g.SNPs)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	for _, c := range []struct {
		name    string
		opt     BuildOptions
		queries map[string]func(s *Store) error
	}{
		{"complete", BuildOptions{TileSize: 16}, map[string]func(s *Store) error{
			"At":       func(s *Store) error { _, err := s.At(3, 90); return err },
			"Cell":     func(s *Store) error { _, err := s.Cell(core.MeasureD, 40, 41); return err },
			"Pair":     func(s *Store) error { _, _, _, err := s.Pair(60, 2); return err },
			"Region":   func(s *Store) error { _, err := s.Region(10, 70); return err },
			"Rect":     func(s *Store) error { _, err := s.Rect(core.MeasureDPrime, 0, 8, 50, 96); return err },
			"Top":      func(s *Store) error { _, err := s.Top(5); return err },
			"TopRange": func(s *Store) error { _, err := s.TopRange(5, 32, 48); return err },
		}},
		{"pruned", BuildOptions{TileSize: 16, Threshold: 0.01, Banded: true, Band: 40}, map[string]func(s *Store) error{
			"At":       func(s *Store) error { _, err := s.At(3, 5); return err },
			"Lookup":   func(s *Store) error { _, _, err := s.Lookup(50, 51); return err },
			"MatVec":   func(s *Store) error { _, err := s.MatVec(x); return err },
			"MatVecRg": func(s *Store) error { _, err := s.MatVecRange(x, 20, 90); return err },
			"Score":    func(s *Store) error { _, err := s.Score(x); return err },
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // the operators split their tile bands
			path := filepath.Join(t.TempDir(), "truncated.store")
			if _, err := BuildFile(path, g, c.opt); err != nil {
				t.Fatal(err)
			}
			s, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for name, q := range c.queries {
				if name != "At" { // At's tile stays unchecked until after the cut
					if err := q(s); err != nil {
						t.Fatalf("%s before the cut: %v", name, err)
					}
				}
			}
			base := runtime.NumGoroutine()
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				for name, q := range c.queries {
					if err := q(s); err == nil {
						t.Fatalf("%s served from a truncated store", name)
					} else if round == 0 {
						t.Logf("%s: %v", name, err)
					}
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines did not return: %d > %d", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
