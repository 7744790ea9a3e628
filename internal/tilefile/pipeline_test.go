package tilefile_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/tilefile"
)

// The build pipeline under observation and injected faults. The seam sees
// four calls — a write to the data file, a writeback request for it, an
// fsync, the manifest rename — and tells the fsyncs apart by file name.
const (
	opWrite        = "data write"
	opWriteback    = "data writeback"
	opSyncData     = "data fsync"
	opSyncSidecar  = "sidecar fsync"
	opSyncManifest = "manifest fsync"
	opRename       = "manifest rename"
)

var errInjected = errors.New("injected fault")

type fsEvent struct {
	op string
	// size is the file's length when an fsync or a writeback was issued;
	// off and n the range a writeback asked for; manifest the bytes a
	// rename installs.
	size, off, n int64
	manifest     []byte
}

// seam records every call through tilefile's fs seam and can fail, gate
// or delay any of them.
type seam struct {
	mu     sync.Mutex
	cond   *sync.Cond
	events []fsEvent
	calls  map[string]int

	// failOp's failAt-th call (1-based) returns errInjected.
	failOp   string
	failAt   int
	injected bool
	// lockstep > 0 makes the pipeline deterministic for that many stripes:
	// the data write of stripe s waits for the manifest that counts stripe
	// s−1, so commit k covers exactly stripe k. The last of them is never
	// committed, so the writes after it wait for lockstep−1 manifests.
	// Every write already waits for the commit before it, so lockstep
	// also pins the commit interval to 0: pacing would only stretch each
	// stripe to a second.
	lockstep int
	// before runs ahead of the nth call of op, outside the lock.
	before func(op string, nth int)
}

func installSeam(t *testing.T, s *seam) *seam {
	t.Helper()
	s.cond = sync.NewCond(&s.mu)
	s.calls = make(map[string]int)
	t.Cleanup(tilefile.SetFSForTest(s.write, s.writeback, s.sync, s.rename))
	if s.lockstep > 0 {
		pinInterval(t, 0)
	}
	return s
}

// pinInterval sets the least time between two checkpoint commits for the
// rest of the test.
func pinInterval(t *testing.T, d time.Duration) {
	t.Helper()
	t.Cleanup(tilefile.SetCommitIntervalForTest(d))
}

// wait blocks until pred holds or a fault has been injected.
func (s *seam) wait(pred func() bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !pred() && !s.injected {
		s.cond.Wait()
	}
}

func (s *seam) count(op string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[op]
}

func (s *seam) enter(ev fsEvent) error {
	s.mu.Lock()
	s.calls[ev.op]++
	nth := s.calls[ev.op]
	s.events = append(s.events, ev)
	fail := ev.op == s.failOp && nth == s.failAt
	if fail {
		s.injected = true
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.before != nil {
		s.before(ev.op, nth)
	}
	if ev.op == opWrite && s.lockstep > 0 {
		// Write 1 is the header, write 2+s stripe s; the index and the
		// header patch follow the last committed stripe's manifest.
		need := min(nth-2, s.lockstep-1)
		s.wait(func() bool { return s.calls[opRename] >= need })
	}
	if fail {
		return errInjected
	}
	return nil
}

func (s *seam) write(f *os.File, p []byte) (int, error) {
	if err := s.enter(fsEvent{op: opWrite}); err != nil {
		return 0, err
	}
	return f.Write(p)
}

// writeback records the file's length beside the range asked for (-1 if
// it cannot be read, which no range fits); a writeback cannot fail.
func (s *seam) writeback(f *os.File, off, n int64) {
	size := int64(-1)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	s.enter(fsEvent{op: opWriteback, size: size, off: off, n: n})
	tilefile.Writeback(f, off, n)
}

func (s *seam) sync(f *os.File) error {
	op := opSyncData
	switch {
	case strings.HasSuffix(f.Name(), ".idx"):
		op = opSyncSidecar
	case strings.HasSuffix(f.Name(), ".tmp"):
		op = opSyncManifest
	}
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if err := s.enter(fsEvent{op: op, size: fi.Size()}); err != nil {
		return err
	}
	return f.Sync()
}

func (s *seam) rename(oldpath, newpath string) error {
	m, err := os.ReadFile(oldpath)
	if err != nil {
		return err
	}
	if err := s.enter(fsEvent{op: opRename, manifest: m}); err != nil {
		return err
	}
	return os.Rename(oldpath, newpath)
}

// settleGoroutines waits for the goroutine count to come back to base: a
// build joins its own stages, but the scan's panel prefetcher is only
// signalled, so it may take a moment to exit.
func settleGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the build", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBuildDurabilityOrder: whatever the three stages interleave into,
// every manifest that gets renamed into place was preceded by a data
// fsync issued with at least its DataOffset bytes in the file and by a
// sidecar fsync covering its TilesWritten entries — and the build's own
// count of commits is the number of manifests. A writeback never counts
// as a data fsync here; each asks only for bytes already in the file, one
// per stripe, and no manifest names the final stripe, which the seal makes
// durable. Commits are unpaced, so the test build makes some.
func TestBuildDurabilityOrder(t *testing.T) {
	g := testMatrix(t, 120, 77, 9)
	sh := shape{nt: 16, band: 50}
	stripes := tilefile.BandsFor(120, sh.nt)
	pinInterval(t, 0)
	for _, tr := range tiers {
		s := installSeam(t, &seam{})
		path := filepath.Join(t.TempDir(), "ordered.store")
		st, err := tr.build(path, ldbmSource(t, g, false), sh, srcOpts{ioPanel: 16, checkpoint: true})
		if err != nil {
			t.Fatalf("%s: %v", tr.name, err)
		}
		if n := s.count(opWriteback); n != stripes {
			t.Fatalf("%s: %d writebacks for %d stripes", tr.name, n, stripes)
		}
		if got := mustRead(t, path); string(got) != string(ramBytes(t, tr, g, sh)) {
			t.Fatalf("%s: store differs from the in-RAM build", tr.name)
		}
		renames, writebacks := 0, 0
		var dataSynced, sidecarSynced int64 // the most any fsync so far covered
		for _, ev := range s.events {
			switch ev.op {
			case opWriteback:
				writebacks++
				if ev.n <= 0 || ev.off+ev.n > ev.size {
					t.Fatalf("%s: writeback %d asks for [%d, %d) of a %d-byte file",
						tr.name, writebacks, ev.off, ev.off+ev.n, ev.size)
				}
			case opSyncData:
				dataSynced = max(dataSynced, ev.size)
			case opSyncSidecar:
				sidecarSynced = max(sidecarSynced, ev.size)
			case opRename:
				renames++
				m, err := tilefile.ParseManifest(&tr.format, ev.manifest)
				if err != nil {
					t.Fatalf("%s: manifest %d: %v", tr.name, renames, err)
				}
				if dataSynced < m.DataOffset {
					t.Fatalf("%s: manifest %d names data offset %d, only %d bytes were in the file at the last data fsync",
						tr.name, renames, m.DataOffset, dataSynced)
				}
				if want := int64(m.TilesWritten) * tilefile.IndexEntrySize; sidecarSynced < want {
					t.Fatalf("%s: manifest %d counts %d tiles (%d sidecar bytes), only %d were fsynced",
						tr.name, renames, m.TilesWritten, want, sidecarSynced)
				}
				if m.StripesDone >= stripes {
					t.Fatalf("%s: manifest %d names the final stripe (%d of %d)", tr.name, renames, m.StripesDone, stripes)
				}
			}
		}
		if renames == 0 || renames > stripes || st.Commits != renames {
			t.Fatalf("%s: %d manifests for %d stripes, BuildStats.Commits %d", tr.name, renames, stripes, st.Commits)
		}
		if st.EncodeWriteNanos <= 0 || st.CommitNanos <= 0 {
			t.Fatalf("%s: stage times not recorded: %+v", tr.name, st)
		}
	}
}

// TestBuildInjectedFaults fails the third data write, data fsync, sidecar
// fsync and manifest rename in turn, in lockstep so the outcome is exact.
// Each must surface as a *PartialError whose FlushedStripes is the
// manifest's StripesDone, wrap the injected error rather than the
// cancellation it caused, leave no goroutine behind, and resume to the
// bytes of an uninterrupted build.
func TestBuildInjectedFaults(t *testing.T) {
	g := testMatrix(t, 120, 77, 9)
	sh := shape{nt: 16, band: 50}
	stripes := tilefile.BandsFor(120, sh.nt)
	for _, tr := range tiers {
		ref := ramBytes(t, tr, g, sh)
		src := ldbmSource(t, g, false)
		for _, c := range []struct {
			op      string
			durable int // stripes the third call's failure leaves committed
		}{
			{opWrite, 1}, // the header is the first data write
			{opSyncData, 2},
			{opSyncSidecar, 2},
			{opRename, 2},
		} {
			t.Run(tr.name+"/"+c.op, func(t *testing.T) {
				base := runtime.NumGoroutine()
				installSeam(t, &seam{failOp: c.op, failAt: 3, lockstep: stripes})
				path := filepath.Join(t.TempDir(), "faulted.store")
				_, err := tr.build(path, src, sh, srcOpts{ioPanel: 16, checkpoint: true})
				var pe *tilefile.PartialError
				if !errors.As(err, &pe) || !errors.Is(err, errInjected) {
					t.Fatalf("build returned %v, want a *PartialError wrapping the injected fault", err)
				}
				m, err := tilefile.ParseManifest(&tr.format, mustRead(t, tilefile.CheckpointPath(path)))
				if err != nil {
					t.Fatalf("manifest after the fault: %v", err)
				}
				if pe.FlushedStripes != c.durable || m.StripesDone != c.durable {
					t.Fatalf("error says %d stripes durable, manifest %d, want %d", pe.FlushedStripes, m.StripesDone, c.durable)
				}
				settleGoroutines(t, "after the fault", base)

				// The resumed build runs through the same seam, unfaulted
				// and unsynchronised.
				s := installSeam(t, &seam{})
				st, err := tr.build(path, src, sh, srcOpts{ioPanel: 16, resume: true})
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if st.StartStripe != c.durable {
					t.Fatalf("resumed at stripe %d, want %d", st.StartStripe, c.durable)
				}
				if got := mustRead(t, path); string(got) != string(ref) {
					t.Fatal("resumed store differs from an uninterrupted build")
				}
				if st.Commits != s.count(opRename) || st.Commits > stripes-c.durable {
					t.Fatalf("resume of %d stripes: %d commits, %d manifests", stripes-c.durable, st.Commits, s.count(opRename))
				}
				settleGoroutines(t, "after the resume", base)
			})
		}
	}
}

// TestBuildFaultStopsScan: a stage's failure cancels the scan even when
// the caller handed the build a context of its own (LD.Blis.Ctx). The
// third data write — stripe 1's tiles — fails; the build must return its
// *PartialError having made fewer than half the driver calls of the same
// build unfaulted, not compute every remaining stripe for a writer that
// discards them.
func TestBuildFaultStopsScan(t *testing.T) {
	g := testMatrix(t, 480, 40, 9)
	sh := shape{nt: 16, band: 50}
	o := srcOpts{ioPanel: 16, checkpoint: true, ctx: context.Background()}
	for _, tr := range tiers {
		t.Run(tr.name, func(t *testing.T) {
			src := ldbmSource(t, g, false)
			calls := func(s *seam) (uint64, error) {
				installSeam(t, s)
				before := blis.ReadStats().Calls
				_, err := tr.build(filepath.Join(t.TempDir(), "s.store"), src, sh, o)
				return blis.ReadStats().Calls - before, err
			}
			full, err := calls(&seam{})
			if err != nil {
				t.Fatal(err)
			}
			faulted, err := calls(&seam{failOp: opWrite, failAt: 3})
			var pe *tilefile.PartialError
			if !errors.As(err, &pe) || !errors.Is(err, errInjected) {
				t.Fatalf("build returned %v, want a *PartialError wrapping the injected fault", err)
			}
			if 2*faulted >= full {
				t.Fatalf("faulted build made %d driver calls, the whole build %d: the fault did not stop the scan", faulted, full)
			}
			t.Logf("%d driver calls faulted, %d unfaulted", faulted, full)
		})
	}
}

// panelWatch is a source whose Panel calls take a little while and are
// counted in flight, and which can cancel a context at its nth call.
type panelWatch struct {
	bitmat.Source
	calls, inFlight atomic.Int64
	cancelAt        int64
	cancel          context.CancelFunc
}

func (s *panelWatch) Panel(lo, hi int, buf *bitmat.Matrix) (*bitmat.Matrix, error) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	if n := s.calls.Add(1); n == s.cancelAt {
		s.cancel()
	}
	time.Sleep(50 * time.Microsecond)
	return s.Source.Panel(lo, hi, buf)
}

// TestKeptBuildStopsAtFourThreads: a sparse build, whose scan runs four
// kept stripes at once, stopped by an injected writer fault and by a
// cancel, makes far fewer driver calls than the whole build and returns
// with no Panel call running, none starting after.
func TestKeptBuildStopsAtFourThreads(t *testing.T) {
	stopsAtFourThreads(t, func(path string, src bitmat.Source, ctx context.Context) error {
		opt := ldstore.SourceBuildOptions{
			BuildOptions: ldstore.BuildOptions{TileSize: 16, Threshold: 0.02, Banded: true, Band: 50},
			IOPanelSNPs:  16, Checkpoint: true,
		}
		opt.LD.Blis.Threads, opt.LD.Blis.Ctx = 4, ctx
		_, err := ldstore.BuildFileFromSource(path, src, opt)
		return err
	})
}

// TestCountBuildStopsAtFourThreads is TestKeptBuildStopsAtFourThreads for
// a dense build, whose scan runs four counts stripes at once.
func TestCountBuildStopsAtFourThreads(t *testing.T) {
	stopsAtFourThreads(t, func(path string, src bitmat.Source, ctx context.Context) error {
		_, err := tiers[0].build(path, src, shape{nt: 16}, srcOpts{ioPanel: 16, checkpoint: true, ctx: ctx, threads: 4})
		return err
	})
}

// stopsAtFourThreads stops a build at four stripes in flight by a writer
// fault and by a cancel: either must make fewer than half the whole
// build's driver calls and leave no Panel call running or starting.
func stopsAtFourThreads(t *testing.T, buildAt func(path string, src bitmat.Source, ctx context.Context) error) {
	g := testMatrix(t, 480, 40, 9)
	build := func(src bitmat.Source, ctx context.Context) (uint64, error) {
		before := blis.ReadStats().Calls
		err := buildAt(filepath.Join(t.TempDir(), "s.store"), src, ctx)
		return blis.ReadStats().Calls - before, err
	}
	settled := func(w *panelWatch) {
		t.Helper()
		if n := w.inFlight.Load(); n != 0 {
			t.Fatalf("%d Panel calls still running after the build returned", n)
		}
		calls := w.calls.Load()
		time.Sleep(20 * time.Millisecond)
		if later := w.calls.Load(); later != calls {
			t.Fatalf("%d Panel calls started after the build returned", later-calls)
		}
	}
	installSeam(t, &seam{})
	full, err := build(ldbmSource(t, g, false), context.Background())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("writer fault", func(t *testing.T) {
		installSeam(t, &seam{failOp: opWrite, failAt: 3})
		w := &panelWatch{Source: ldbmSource(t, g, false)}
		faulted, err := build(w, context.Background())
		if !errors.Is(err, errInjected) {
			t.Fatalf("build returned %v, want the injected fault", err)
		}
		settled(w)
		if 2*faulted >= full {
			t.Fatalf("faulted build made %d driver calls, the whole build %d: the fault did not stop the scan", faulted, full)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		installSeam(t, &seam{})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The frequency pass reads 30 panels; cancel a few stripes later.
		w := &panelWatch{Source: ldbmSource(t, g, false), cancelAt: 30 + 12, cancel: cancel}
		cancelled, err := build(w, ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("build returned %v, want context.Canceled", err)
		}
		settled(w)
		if 2*cancelled >= full {
			t.Fatalf("cancelled build made %d driver calls, the whole build %d: the cancel did not stop the scan", cancelled, full)
		}
	})
}

// TestBuildUncheckedWriteFault: a build without a checkpoint whose data
// write fails returns the write's error and removes its partial file.
func TestBuildUncheckedWriteFault(t *testing.T) {
	g := testMatrix(t, 120, 77, 9)
	sh := shape{nt: 16, band: 50}
	for _, tr := range tiers {
		t.Run(tr.name, func(t *testing.T) {
			installSeam(t, &seam{failOp: opWrite, failAt: 3})
			dir := t.TempDir()
			_, err := tr.build(filepath.Join(dir, "partial.store"), ldbmSource(t, g, false), sh, srcOpts{ioPanel: 16})
			if !errors.Is(err, errInjected) {
				t.Fatalf("build returned %v, want the injected fault", err)
			}
			if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
				t.Fatalf("directory holds %v after the failed build (%v), want nothing", ents, err)
			}
		})
	}
}

// TestBuildGroupCommit: a committer slower than the scan merges pending
// commits instead of queueing them. The first data fsync is held until
// every stripe has been flushed, so the second commit has to cover all the
// rest but the final one: two manifests for eight stripes, and the same
// bytes. Commits are unpaced, so only the held fsync merges them.
func TestBuildGroupCommit(t *testing.T) {
	g := testMatrix(t, 120, 77, 9)
	sh := shape{nt: 16, band: 50}
	stripes := tilefile.BandsFor(120, sh.nt)
	pinInterval(t, 0)
	for _, tr := range tiers {
		s := &seam{}
		s.before = func(op string, nth int) {
			if op == opSyncData && nth == 1 {
				s.wait(func() bool { return s.calls[opWrite] >= 1+stripes })
			}
		}
		installSeam(t, s)
		path := filepath.Join(t.TempDir(), "grouped.store")
		st, err := tr.build(path, ldbmSource(t, g, false), sh, srcOpts{ioPanel: 16, checkpoint: true})
		if err != nil {
			t.Fatalf("%s: %v", tr.name, err)
		}
		if st.Commits != 2 || s.count(opRename) != 2 {
			t.Fatalf("%s: %d commits (%d manifests) for %d stripes, want 2", tr.name, st.Commits, s.count(opRename), stripes)
		}
		if got := mustRead(t, path); string(got) != string(ramBytes(t, tr, g, sh)) {
			t.Fatalf("%s: group-committed store differs from the in-RAM build", tr.name)
		}
	}
}

// onlyStore fails the test unless dir holds exactly the file name: no
// manifest, sidecar or manifest temp left beside the store.
func onlyStore(t *testing.T, dir, name string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != name {
		t.Fatalf("directory holds %q, want only %q", names, name)
	}
}

// TestBuildCommitPacing: with commits an hour apart, a checkpointed build
// that runs to the end makes no commit at all — the seal makes every
// stripe durable — returns long before the interval with no goroutine
// left behind, leaves only the store in its directory, and writes an
// unchecked build's bytes. Both write every stripe back. A source that
// fails part-way has the committer commit what was flushed at once,
// whatever the interval: the error, the one manifest and the stripes the
// writer wrote agree, and a resume reaches the reference bytes.
func TestBuildCommitPacing(t *testing.T) {
	const interval = time.Hour
	g := testMatrix(t, 120, 77, 9)
	sh := shape{nt: 16, band: 50}
	stripes := tilefile.BandsFor(120, sh.nt)
	pinInterval(t, interval)
	for _, tr := range tiers {
		t.Run(tr.name, func(t *testing.T) {
			src := ldbmSource(t, g, false)
			plain := filepath.Join(t.TempDir(), "plain.store")
			s := installSeam(t, &seam{})
			if _, err := tr.build(plain, src, sh, srcOpts{ioPanel: 16}); err != nil {
				t.Fatal(err)
			}
			if n := s.count(opWriteback); n != stripes {
				t.Fatalf("unchecked build: %d writebacks for %d stripes", n, stripes)
			}

			base := runtime.NumGoroutine()
			dir := t.TempDir()
			path := filepath.Join(dir, "paced.store")
			s = installSeam(t, &seam{})
			t0 := time.Now()
			st, err := tr.build(path, src, sh, srcOpts{ioPanel: 16, checkpoint: true})
			took := time.Since(t0)
			if err != nil {
				t.Fatal(err)
			}
			if st.Commits != 0 || s.count(opRename) != 0 {
				t.Fatalf("%d commits (%d manifests) within one interval, want 0", st.Commits, s.count(opRename))
			}
			if took > interval/60 {
				t.Fatalf("build took %v against a commit interval of %v", took, interval)
			}
			settleGoroutines(t, "after the build", base)
			if n := s.count(opWriteback); n != stripes {
				t.Fatalf("checkpointed build: %d writebacks for %d stripes", n, stripes)
			}
			onlyStore(t, dir, "paced.store")
			if string(mustRead(t, path)) != string(mustRead(t, plain)) {
				t.Fatal("checkpointed store differs from the unchecked one")
			}

			t.Run("failing source", func(t *testing.T) {
				base := runtime.NumGoroutine()
				s := installSeam(t, &seam{})
				// The frequency pass fetches each of the 8 panels once;
				// 18 more see the dense tier through two stripes.
				path, src, pe := killedBuild(t, tr, g, sh, 120/16+18)
				written := s.count(opWriteback)
				if written == 0 || written >= stripes {
					t.Fatalf("the writer wrote %d of %d stripes before the failure", written, stripes)
				}
				m, err := tilefile.ParseManifest(&tr.format, mustRead(t, tilefile.CheckpointPath(path)))
				if err != nil {
					t.Fatalf("manifest after the failure: %v", err)
				}
				if pe.FlushedStripes != written || m.StripesDone != written || s.count(opRename) != 1 {
					t.Fatalf("error says %d stripes durable, manifest %d, %d manifests; the writer wrote %d",
						pe.FlushedStripes, m.StripesDone, s.count(opRename), written)
				}
				settleGoroutines(t, "after the failure", base)

				installSeam(t, &seam{})
				st, err := tr.build(path, src, sh, srcOpts{ioPanel: 16, resume: true})
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if st.StartStripe != written || st.Commits != 0 {
					t.Fatalf("resumed at stripe %d with %d commits, want %d and 0", st.StartStripe, st.Commits, written)
				}
				if string(mustRead(t, path)) != string(mustRead(t, plain)) {
					t.Fatal("resumed store differs from an uninterrupted build")
				}
				onlyStore(t, filepath.Dir(path), filepath.Base(path))
			})
		})
	}
}

// TestBuildRemovesManifestTemp: a manifest rename that fails takes its
// temp file with it, and a build that finishes removes one that a kill
// left between the temp's fsync and its rename — with paced commits a
// resumed build may commit nothing, so nothing else would ever replace it.
func TestBuildRemovesManifestTemp(t *testing.T) {
	g := testMatrix(t, 120, 77, 9)
	sh := shape{nt: 16, band: 50}
	stripes := tilefile.BandsFor(120, sh.nt)
	for _, tr := range tiers {
		t.Run(tr.name, func(t *testing.T) {
			src := ldbmSource(t, g, false)
			dir := t.TempDir()
			path := filepath.Join(dir, "renamed.store")
			tmp := tilefile.CheckpointPath(path) + ".tmp"
			installSeam(t, &seam{failOp: opRename, failAt: 2, lockstep: stripes})
			_, err := tr.build(path, src, sh, srcOpts{ioPanel: 16, checkpoint: true})
			var pe *tilefile.PartialError
			if !errors.As(err, &pe) || !errors.Is(err, errInjected) || pe.FlushedStripes != 1 {
				t.Fatalf("build returned %v, want a *PartialError after 1 stripe wrapping the injected fault", err)
			}
			if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("the failed rename left its manifest temp behind (stat: %v)", err)
			}

			// A kill between the temp's fsync and its rename leaves one.
			if err := os.WriteFile(tmp, mustRead(t, tilefile.CheckpointPath(path)), 0o644); err != nil {
				t.Fatal(err)
			}
			pinInterval(t, time.Hour)
			installSeam(t, &seam{})
			st, err := tr.build(path, src, sh, srcOpts{ioPanel: 16, resume: true})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if st.StartStripe != 1 || st.Commits != 0 {
				t.Fatalf("resumed at stripe %d with %d commits, want 1 and 0", st.StartStripe, st.Commits)
			}
			onlyStore(t, dir, "renamed.store")
			if string(mustRead(t, path)) != string(ramBytes(t, tr, g, sh)) {
				t.Fatal("resumed store differs from the in-RAM build")
			}
		})
	}
}

// countingSource counts panel fetches: the one thing a test can see of
// how far the scan has run.
type countingSource struct {
	bitmat.Source
	fetches atomic.Int64
}

func (s *countingSource) Panel(lo, hi int, buf *bitmat.Matrix) (*bitmat.Matrix, error) {
	s.fetches.Add(1)
	return s.Source.Panel(lo, hi, buf)
}

// TestBuildBackPressure: a writer stuck on the first stripe must stall the
// scan, not let it run on into more buffers. With three builder buffers
// the scan can hand over stripes 0, 1 and 2 and, on one thread, compute
// stripe 3 into its own storage before it blocks; the prefetcher runs a
// few panels further. The writer is held for a window and the fetches made
// by its end counted: a fourth buffer would let the scan finish stripe 4 as
// well, eight fetches beyond the bound.
func TestBuildBackPressure(t *testing.T) {
	const (
		snps, nt  = 192, 16
		stripes   = snps / nt
		lookahead = 5 // panels the prefetcher holds past the scan: 2 queued, 1 in hand, slack
	)
	g := testMatrix(t, snps, 64, 13)
	sh := shape{nt: nt, band: 100}
	// With IOPanelSNPs = nt, stripe s fetches its own panel and one per
	// stripe to its right; the frequency pass fetches every panel once.
	bound := int64(stripes + lookahead)
	for s := 0; s <= 3; s++ {
		bound += int64(stripes - s)
	}
	tr := tiers[0] // dense: every stripe is full width
	src := &countingSource{Source: ldbmSource(t, g, false)}
	s := &seam{}
	var held int64
	s.before = func(op string, nth int) {
		if op != opWrite || nth != 2 { // stripe 0's tile bytes
			return
		}
		for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline) && src.fetches.Load() <= bound; {
			time.Sleep(time.Millisecond)
		}
		held = src.fetches.Load()
	}
	installSeam(t, s)
	path := filepath.Join(t.TempDir(), "stalled.store")
	st, err := tr.build(path, src, sh, srcOpts{ioPanel: nt, checkpoint: true, threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if held == 0 || held > bound {
		t.Fatalf("scan made %d panel fetches while the writer was stuck on stripe 0, bound %d (of %d)", held, bound, src.fetches.Load())
	}
	t.Logf("writer held: %d fetches (bound %d, whole build %d), scan waited %.1f ms",
		held, bound, src.fetches.Load(), float64(st.ScanWaitNanos)/1e6)
	if got := mustRead(t, path); string(got) != string(ramBytes(t, tr, g, sh)) {
		t.Fatal("store differs from the in-RAM build")
	}
	if want := int64((1 + 3) * (2*nt*snps + 8*stripes)); st.PeakResultBytes != want {
		t.Fatalf("PeakResultBytes %d, want four stripes = %d", st.PeakResultBytes, want)
	}
}

// TestStripeBufferSize: the three circulating stripe buffers hold what the
// scan hands over, and the scan holds as much again for each stripe in
// flight (one per thread, at most the 8 stripes there are) — for the dense
// codec's counts stripes NT rows to n at 2 bytes a count plus an 8-byte
// maximum for each of its 8 tiles; for the pruned codecs' kept stripes
// NT+1 row pointers and the survivors of the largest stripe (192 unbanded
// at τ = 0.05, 255 banded at τ = 0.02, a 4-byte column and a 4-byte count
// each), a survivor list as large for each stripe in flight.
// PeakResultBytes reports exactly that.
func TestStripeBufferSize(t *testing.T) {
	const snps, nt, band = 120, 16, 50
	g := testMatrix(t, snps, 64, 5)
	src := ldbmSource(t, g, false)
	sh := shape{nt: nt, band: band}
	w := min(runtime.GOMAXPROCS(0), tilefile.BandsFor(snps, nt))
	for _, c := range []struct {
		tier tier
		want int64
	}{
		{tiers[0], int64((3 + w) * (2*nt*snps + 8*8))},
		{tiers[1], int64(3*(8*(nt+1)+8*192) + w*8*192)},
		{tiers[2], int64(3*(8*(nt+1)+8*255) + w*8*255)},
	} {
		st, err := c.tier.build(filepath.Join(t.TempDir(), "s.store"), src, sh, srcOpts{ioPanel: nt})
		if err != nil {
			t.Fatal(err)
		}
		if st.PeakResultBytes != c.want {
			t.Errorf("%s: PeakResultBytes %d, want %d", c.tier.name, st.PeakResultBytes, c.want)
		}
	}
}

// TestKeptBuildMemoryAtZeroThreshold: at τ = 0 with no band every cell
// survives, so a kept build at Threads 4 holds four survivor lists of the
// largest stripe (rows 0–15, each from its diagonal to n: 1800 cells) on
// top of its three stripes, 8 bytes a cell, a column and a count — more
// than three times the dense build's counts stripes (7·(2·16·120 + 8·8) =
// 27 328 bytes) — and PeakResultBytes says so.
func TestKeptBuildMemoryAtZeroThreshold(t *testing.T) {
	const snps, nt, cells = 120, 16, 16*120 - 16*15/2
	g := testMatrix(t, snps, 64, 5)
	tr := sparseTier("sparse τ=0", 0, false, "", "")
	st, err := tr.build(filepath.Join(t.TempDir(), "s.store"), ldbmSource(t, g, false), shape{nt: nt}, srcOpts{ioPanel: nt, threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(3*(8*(nt+1)+8*cells) + 4*8*cells); st.PeakResultBytes != want {
		t.Fatalf("PeakResultBytes %d, want %d", st.PeakResultBytes, want)
	}
}

// BenchmarkBuildFile runs the whole build pipeline from a windowed .ldbm:
// the dense and the banded sparse codec, with and without the checkpoint's
// committer stage. pairs/s is the headline; MB/s is the store written,
// commits/op how many manifests the paced committer wrote against the
// stripes/op (0 for a build shorter than the commit interval: the seal
// makes every stripe durable), scan-wait-ms/op the back-pressure the
// output side put on the scan, and stall-ms/op the time the stripe workers
// waited on the prefetcher (the build's delta of
// blis.ReadStats().PrefetchStallNanos).
func BenchmarkBuildFile(b *testing.B) {
	const snps, samples, nt, band = 2048, 1024, 128, 256
	g := testMatrix(b, snps, samples, 17)
	src := ldbmSource(b, g, false)
	sh := shape{nt: nt, band: band}
	for _, c := range []struct {
		name  string
		tier  tier
		pairs int64
	}{
		{"dense", tiers[0], int64(snps) * int64(snps+1) / 2},
		{"sparse-banded", tiers[2], int64(snps)*int64(band+1) - int64(band)*int64(band+1)/2},
	} {
		for _, ckpt := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/checkpoint=%v", c.name, ckpt), func(b *testing.B) {
				path := filepath.Join(b.TempDir(), "bench.store")
				var st tilefile.BuildStats
				var commits, waited int64
				var stalled uint64
				b.ReportAllocs()
				for b.Loop() {
					before := blis.ReadStats().PrefetchStallNanos
					var err error
					if st, err = c.tier.build(path, src, sh, srcOpts{ioPanel: 256, checkpoint: ckpt}); err != nil {
						b.Fatal(err)
					}
					stalled += blis.ReadStats().PrefetchStallNanos - before
					commits += int64(st.Commits)
					waited += st.ScanWaitNanos
				}
				secs, n := b.Elapsed().Seconds(), float64(b.N)
				b.ReportMetric(float64(c.pairs)*n/secs, "pairs/s")
				b.ReportMetric(float64(st.FileBytes)*n/secs/1e6, "MB/s")
				b.ReportMetric(float64(commits)/n, "commits/op")
				b.ReportMetric(float64(snps/nt), "stripes/op")
				b.ReportMetric(float64(waited)/n/1e6, "scan-wait-ms/op")
				b.ReportMetric(float64(stalled)/n/1e6, "stall-ms/op")
			})
		}
	}
}
