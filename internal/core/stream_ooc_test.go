package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
)

// oocSources opens a matrix as both file-backed source modes, so every test
// sweeps both against the resident matrix.
func oocSources(t *testing.T, m *bitmat.Matrix) map[string]bitmat.Source {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.ldbm")
	if err := bitmat.WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	srcs := map[string]bitmat.Source{}
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
			counts := make([]uint32, m.SNPs)
			got, err := sourceAlleles(src, 0, m.SNPs, panel, counts)
			if err != nil {
				t.Fatalf("%s/panel=%d: %v", srcName, panel, err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) || int(counts[i]) != m.DerivedCount(i) {
					t.Fatalf("%s/panel=%d: SNP %d has %d alleles, p = %v; want %d, %v", srcName, panel, i, counts[i], got[i], m.DerivedCount(i), want[i])
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
	// A resident source is refused the same way.
	if err := StreamSource(bitmat.NewMemSource(m), opt, func(int, int, []float64) {}); err == nil {
		t.Fatal("KeepCounts resident scan must be rejected")
	}
}

// A resident source is fetched one panel wide whatever IOPanelSNPs says: a
// stripe of its scan is one SYRK plus at most one GEMM (one GEMM unless
// triangular), all of it one driver call, and reading its zero-copy views
// is no panel I/O.
func TestMemSourcePanelWidth(t *testing.T) {
	g := streamMatrix(t, 70, 40, 3) // stripes of 16: four full, one of 6
	for name, tc := range map[string]struct {
		opt   StreamOptions
		calls uint64
	}{
		"triangular": {StreamOptions{Triangular: true, StripeRows: 16, IOPanelSNPs: 8}, 5},
		"banded":     {StreamOptions{Triangular: true, Banded: true, Band: 20, StripeRows: 16, IOPanelSNPs: 8}, 5},
		"full":       {StreamOptions{StripeRows: 16, IOPanelSNPs: 8}, 5},
	} {
		sc, err := newScan(bitmat.NewMemSource(g), tc.opt, false)
		if err != nil {
			t.Fatal(err)
		}
		if sc.panel != g.SNPs {
			t.Fatalf("%s: a resident source is fetched %d SNPs wide, want %d", name, sc.panel, g.SNPs)
		}
		before := blis.ReadStats()
		if err := Stream(g, tc.opt, func(int, int, []float64) {}); err != nil {
			t.Fatal(err)
		}
		after := blis.ReadStats()
		if calls := after.Calls - before.Calls; calls != tc.calls {
			t.Fatalf("%s: %d driver calls, want %d", name, calls, tc.calls)
		}
		if after.PanelsRead != before.PanelsRead || after.PrefetchStallNanos != before.PrefetchStallNanos {
			t.Fatalf("%s: a resident scan recorded panel I/O", name)
		}
	}
}

// blockingSource lets its first free Panel calls through and holds every
// later one until release is closed, counting the calls that start.
type blockingSource struct {
	bitmat.Source
	free    int64
	calls   atomic.Int64
	blocked chan struct{} // closed by the first held call
	release chan struct{}
}

func (s *blockingSource) Panel(lo, hi int, buf *bitmat.Matrix) (*bitmat.Matrix, error) {
	if k := s.calls.Add(1); k > s.free {
		if k == s.free+1 {
			close(s.blocked)
		}
		<-s.release
	}
	return s.Source.Panel(lo, hi, buf)
}

// TestStreamSourceJoinsPrefetcher: a scan cancelled while its prefetcher is
// inside Source.Panel returns only after that call is over, and no Panel
// call starts once it has returned. The visitor holds the scan at stripe
// 0's first row while the prefetcher runs into the held call — stripe 1's
// first B panel — then the context is cancelled and the scan let go: it
// fails its next driver call while the fetch is still held.
func TestStreamSourceJoinsPrefetcher(t *testing.T) {
	g := streamMatrix(t, 64, 40, 9)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := StreamOptions{Triangular: true, StripeRows: 16, IOPanelSNPs: 8}
	opt.Blis.Ctx = ctx
	// Frequencies (8 panels), stripe 0's A and its 6 B panels, stripe 1's A.
	src := &blockingSource{Source: sliceBacked(t, g), free: 8 + 1 + 6 + 1,
		blocked: make(chan struct{}), release: make(chan struct{})}
	hold := make(chan struct{})
	returned := make(chan error, 1)
	go func() {
		first := true
		returned <- StreamSource(src, opt, func(int, int, []float64) {
			if first {
				first = false
				<-hold
			}
		})
	}()
	<-src.blocked
	cancel()
	close(hold)
	select {
	case err := <-returned:
		close(src.release)
		t.Fatalf("StreamSource returned (%v) while its prefetcher was inside Panel", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(src.release)
	if err := <-returned; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan returned %v, want context.Canceled", err)
	}
	calls := src.calls.Load()
	time.Sleep(20 * time.Millisecond)
	if later := src.calls.Load(); later != calls {
		t.Fatalf("%d Panel calls started after StreamSource returned", later-calls)
	}
}

// recordingSource records every Panel call's SNPs and the panel bytes held
// in the scan's buffers: a buffer holds the panel it was last filled with
// until it is filled again, which counts a buffer back in the free pool as
// still held, so held bytes bound what the scan has fetched and not yet
// given back. Calls before skip (the frequency pass, into a buffer of its
// own) are recorded but hold nothing.
type recordingSource struct {
	bitmat.Source
	skip      int
	mu        sync.Mutex
	reads     [][2]int
	held      map[*bitmat.Matrix]int
	heldBytes int
	peak      int
}

func (s *recordingSource) Panel(lo, hi int, buf *bitmat.Matrix) (*bitmat.Matrix, error) {
	s.mu.Lock()
	s.reads = append(s.reads, [2]int{lo, hi})
	if len(s.reads) > s.skip {
		b := (hi - lo) * bitmat.WordsFor(s.NumSamples()) * 8
		s.heldBytes += b - s.held[buf]
		s.held[buf] = b
		s.peak = max(s.peak, s.heldBytes)
	}
	s.mu.Unlock()
	return s.Source.Panel(lo, hi, buf)
}

// TestScanReadOrderAndBound: the counts, kept and float scans read their
// panels in the schedule's order — the frequency pass, then per stripe its
// A panel and its B panels left to right — at 1, 2 and 4 threads, whatever
// GOMAXPROCS is, which is what a build killed after a given number of reads
// relies on; and the panel bytes they hold never pass the read-ahead bound:
// per stripe worker readAheadBytes, or two panels if more, plus the A
// stripe and the B panel it multiplies. The panels here are 1 MiB, so four
// fill a worker's read-ahead and a stripe has nine.
func TestScanReadOrderAndBound(t *testing.T) {
	const n, samples, stripe, panel = 64, 1 << 20, 4, 8
	g := bitmat.New(n, samples)
	rng := rand.New(rand.NewSource(5))
	for i := range g.Data {
		g.Data[i] = rng.Uint64()
	}
	var want [][2]int
	for lo := 0; lo < n; lo += panel {
		want = append(want, [2]int{lo, min(lo+panel, n)})
	}
	freqReads := len(want)
	for i0 := 0; i0 < n; i0 += stripe {
		want = append(want, [2]int{i0, i0 + stripe})
		for c := i0 + stripe; c < n; c += panel {
			want = append(want, [2]int{c, min(c+panel, n)})
		}
	}
	panelBytes := panel * bitmat.WordsFor(samples) * 8
	scans := map[string]func(bitmat.Source, StreamOptions) error{
		"counts": func(src bitmat.Source, opt StreamOptions) error {
			return StreamSourceCounts(src, opt, &countSkipper{})
		},
		"kept": func(src bitmat.Source, opt StreamOptions) error {
			return StreamSourceKept(src, opt, &keptCollector{t: t, tau: 0.5})
		},
		"float": func(src bitmat.Source, opt StreamOptions) error {
			return StreamSource(src, opt, func(int, int, []float64) {})
		},
	}
	for name, scan := range scans {
		for _, threads := range []int{1, 2, 4} {
			src := &recordingSource{Source: bitmat.NewMemSource(g), skip: freqReads, held: map[*bitmat.Matrix]int{}}
			opt := StreamOptions{Triangular: true, Exact: true, StripeRows: stripe, IOPanelSNPs: panel}
			opt.Blis.Threads = threads
			if err := scan(src, opt); err != nil {
				t.Fatalf("%s threads=%d: %v", name, threads, err)
			}
			if len(src.reads) != len(want) {
				t.Fatalf("%s threads=%d: %d panel reads, want %d", name, threads, len(src.reads), len(want))
			}
			for k := range want {
				if src.reads[k] != want[k] {
					t.Fatalf("%s threads=%d: read %d is SNPs %v, want %v", name, threads, k, src.reads[k], want[k])
				}
			}
			workers := threads
			if name == "float" {
				workers = 1 // a float stripe is as wide as its rows: one in flight
			}
			if bound := workers * (max(readAheadBytes, 2*panelBytes) + 2*panelBytes); src.peak > bound {
				t.Fatalf("%s threads=%d: %d panel bytes held, bound %d", name, threads, src.peak, bound)
			}
		}
	}
}

// countSkipper is a CountSink that takes every stripe and checks nothing.
type countSkipper struct{ buf CountStripe }

func (c *countSkipper) Alleles([]uint32)          {}
func (c *countSkipper) CountBuffer() *CountStripe { return &c.buf }
func (c *countSkipper) CountDone(*CountStripe)    {}
