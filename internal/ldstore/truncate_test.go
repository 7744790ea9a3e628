package ldstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/core"
)

// truncatingSource is a .ldbm file that is cut to nothing just before the
// first panel of stripe failStripe is read, so every read from then on
// meets the end of the file. A scan reads its allele pass and then, stripe
// by stripe, the A panel and the B panels right of it in ascending order,
// so a stripe begins at each request starting below where the one before
// it ended. One goroutine at a time calls Panel: the caller for the allele
// pass, then the scan's prefetcher.
type truncatingSource struct {
	*bitmat.File
	path       string
	failStripe int
	stripe     int // stripes begun so far
	prevHi     int
	truncated  bool
}

func (s *truncatingSource) Panel(lo, hi int, buf *bitmat.Matrix) (*bitmat.Matrix, error) {
	if lo < s.prevHi {
		if s.stripe == s.failStripe {
			if err := os.Truncate(s.path, 0); err != nil {
				return nil, err
			}
			s.truncated = true
		}
		s.stripe++
	}
	s.prevHi = hi
	return s.File.Panel(lo, hi, buf)
}

// TestTruncatedLDBMIsAnError: a .ldbm input truncated under a running job
// — a build of each tier, dense and pruned, and a float scan, each with
// one and with two stripes in flight — makes the job return the failed
// panel read as an error. The scan first delivers exactly the stripes
// before the failing one; a build reports no more flushed stripes than
// those. Nothing panics and no goroutine is left behind.
func TestTruncatedLDBMIsAnError(t *testing.T) {
	const failStripe = 3
	g := testMatrix(t, 120, 77, 9)
	sh := shape{nt: 16, band: 50}
	open := func(t *testing.T) *truncatingSource {
		path := filepath.Join(t.TempDir(), "g.ldbm")
		if err := bitmat.WriteFile(path, g); err != nil {
			t.Fatal(err)
		}
		f, err := bitmat.OpenFile(path, false)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return &truncatingSource{File: f, path: path, failStripe: failStripe}
	}
	failedRead := func(t *testing.T, err error, src *truncatingSource) {
		t.Helper()
		if !src.truncated {
			t.Fatalf("stripe %d was never read (%d stripes begun); returned %v", failStripe, src.stripe, err)
		}
		if err == nil || !strings.Contains(err.Error(), "reading panel") {
			t.Fatalf("returned %v, want the failed panel read", err)
		}
	}
	for _, threads := range []int{1, 2} {
		for _, tr := range tiers {
			t.Run(fmt.Sprintf("%s/threads=%d", tr.name, threads), func(t *testing.T) {
				src := open(t)
				base := runtime.NumGoroutine()
				_, err := tr.build(filepath.Join(t.TempDir(), "out.store"), src, sh, srcOpts{ioPanel: 16, threads: threads})
				failedRead(t, err, src)
				var pe *PartialError
				if errors.As(err, &pe) && (pe.FlushedStripes < 1 || pe.FlushedStripes > failStripe) {
					t.Fatalf("%d stripes flushed, want 1 to %d", pe.FlushedStripes, failStripe)
				}
				settleGoroutines(t, "after the failed build", base)
			})
		}
		t.Run(fmt.Sprintf("float-scan/threads=%d", threads), func(t *testing.T) {
			src := open(t)
			base := runtime.NumGoroutine()
			opt := core.StreamOptions{Triangular: true, Exact: true, StripeRows: sh.nt, IOPanelSNPs: 16}
			opt.Blis.Threads = threads
			var rows []int
			err := core.StreamSource(src, opt, func(i, _ int, _ []float64) {
				if len(rows) == 0 || rows[len(rows)-1] != i {
					rows = append(rows, i)
				}
			})
			failedRead(t, err, src)
			if len(rows) != failStripe*sh.nt {
				t.Fatalf("%d rows delivered, want the %d of the stripes before stripe %d", len(rows), failStripe*sh.nt, failStripe)
			}
			for k, i := range rows {
				if i != k {
					t.Fatalf("row %d delivered as row %d", i, k)
				}
			}
			settleGoroutines(t, "after the failed scan", base)
		})
	}
}
