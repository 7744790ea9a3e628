package ldstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
)

// sourceRoutes are the ways a store gets built from something other than
// a resident matrix: a resident source and windowed files at several
// panel widths, with and without checkpointing.
func sourceRoutes(t *testing.T, g *bitmat.Matrix) map[string]struct {
	src bitmat.Source
	opt srcOpts
} {
	return map[string]struct {
		src bitmat.Source
		opt srcOpts
	}{
		"mem":           {bitmat.NewMemSource(g), srcOpts{}},
		"windowed":      {ldbmSource(t, g, false), srcOpts{ioPanel: 16}},
		"windowed-wide": {ldbmSource(t, g, false), srcOpts{ioPanel: 1000}},
		"windowed-32":   {ldbmSource(t, g, false), srcOpts{ioPanel: 32}},
		"windowed-ckpt": {ldbmSource(t, g, false), srcOpts{ioPanel: 16, checkpoint: true}},
		"resume-fresh":  {ldbmSource(t, g, false), srcOpts{ioPanel: 16, resume: true}},
	}
}

// TestSourceBuildByteIdentical: an out-of-core build from a file-backed
// source produces byte-for-byte the store the in-RAM builder writes, at
// every panel width and in every tier, with and without
// checkpointing — and leaves no checkpoint files behind.
func TestSourceBuildByteIdentical(t *testing.T) {
	g := testMatrix(t, 131, 97, 5)
	sh := shape{nt: 24, band: 40}
	for _, tr := range tiers {
		ref := ramBytes(t, tr, g, sh)
		for name, rt := range sourceRoutes(t, g) {
			path := filepath.Join(t.TempDir(), "got.store")
			st, err := tr.build(path, rt.src, sh, rt.opt)
			if err != nil {
				t.Fatalf("%s %s: %v", tr.name, name, err)
			}
			if got := mustRead(t, path); string(got) != string(ref) {
				t.Fatalf("%s %s: store bytes differ from in-RAM build (%d vs %d bytes)",
					tr.name, name, len(got), len(ref))
			}
			if st.Tiles == 0 || st.StartStripe != 0 {
				t.Fatalf("%s %s: stats %+v", tr.name, name, st)
			}
			if _, err := os.Stat(CheckpointPath(path)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s %s: checkpoint manifest survived a completed build", tr.name, name)
			}
			if _, err := os.Stat(SidecarPath(path)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s %s: index sidecar survived a completed build", tr.name, name)
			}
		}
	}
}

// TestSourceBuildKillAndResume: a checkpointed build killed mid-run
// reports partial progress, leaves a durable manifest that parses under
// the tier's format, and a resumed run converges to bytes identical to an
// uninterrupted build — even when the crash left unaccounted garbage past
// the durable offset.
func TestSourceBuildKillAndResume(t *testing.T) {
	g := testMatrix(t, 120, 77, 9)
	sh := shape{nt: 16, band: 50}
	for _, tr := range tiers {
		ref := ramBytes(t, tr, g, sh)
		// Enough fetches to survive the frequency pass and a few stripes,
		// then fail.
		path, src, pe := killedBuild(t, tr, g, sh, 120/16+12)
		if pe.FlushedStripes <= 0 || pe.FlushedStripes >= pe.TotalStripes {
			t.Fatalf("%s: partial progress %d/%d out of range", tr.name, pe.FlushedStripes, pe.TotalStripes)
		}
		m, err := parseManifest(tr.format, mustRead(t, CheckpointPath(path)))
		if err != nil {
			t.Fatalf("%s: manifest after kill: %v", tr.name, err)
		}
		if m.StripesDone != pe.FlushedStripes {
			t.Fatalf("%s: manifest says %d stripes, error says %d", tr.name, m.StripesDone, pe.FlushedStripes)
		}

		// Simulate the crash window: bytes written past the durable offset
		// whose manifest never landed. Resume must truncate them away.
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("garbage past the durable offset")); err != nil {
			t.Fatal(err)
		}
		f.Close()

		st, err := tr.build(path, src, sh, srcOpts{ioPanel: 16, resume: true})
		if err != nil {
			t.Fatalf("%s: resume: %v", tr.name, err)
		}
		if st.StartStripe != pe.FlushedStripes {
			t.Fatalf("%s: resume started at stripe %d, want %d", tr.name, st.StartStripe, pe.FlushedStripes)
		}
		if got := mustRead(t, path); string(got) != string(ref) {
			t.Fatalf("%s: resumed store differs from uninterrupted build", tr.name)
		}
	}
}

// TestUncheckpointedBuildFailsPlain: a build without a checkpoint that
// fails a few stripes in — stripes its checkpointed twin reports durable —
// returns the failure itself, not a *PartialError claiming stripes it
// keeps nowhere, and leaves no file at the path.
func TestUncheckpointedBuildFailsPlain(t *testing.T) {
	g := testMatrix(t, 120, 77, 9)
	sh := shape{nt: 16, band: 50}
	const fetches = 120/16 + 22 // the frequency pass, then about three stripes
	for _, tr := range tiers {
		for _, checkpoint := range []bool{true, false} {
			flaky := &flakySource{Source: ldbmSource(t, g, false)}
			flaky.remaining.Store(fetches)
			path := filepath.Join(t.TempDir(), "failed.store")
			_, err := tr.build(path, flaky, sh, srcOpts{ioPanel: 16, checkpoint: checkpoint})
			var pe *PartialError
			if checkpoint {
				if !errors.As(err, &pe) || pe.FlushedStripes < 1 {
					t.Fatalf("%s: checkpointed build returned %v, want a *PartialError after at least one stripe", tr.name, err)
				}
				continue
			}
			if err == nil || errors.As(err, &pe) || !strings.Contains(err.Error(), "injected I/O failure") {
				t.Fatalf("%s: build without a checkpoint returned %v, want the injected failure itself", tr.name, err)
			}
			for _, p := range []string{path, SidecarPath(path), CheckpointPath(path)} {
				if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("%s: %s survived a failed build without a checkpoint (%v)", tr.name, p, err)
				}
			}
		}
	}
}

// TestSourceBuildResumeRefusesMismatch: a manifest from a different
// dataset or different build options — the codec's own knobs included —
// must refuse to resume, and the matching configuration still resumes.
func TestSourceBuildResumeRefusesMismatch(t *testing.T) {
	g := testMatrix(t, 64, 50, 3)
	other := testMatrix(t, 64, 50, 99)
	sh := shape{nt: 16, band: 20}
	resume := srcOpts{ioPanel: 16, resume: true}
	for _, tr := range tiers {
		path, src, _ := killedBuild(t, tr, g, sh, 64/16+5)
		if _, err := tr.build(path, ldbmSource(t, other, false), sh, resume); err == nil {
			t.Fatalf("%s: resume with a different dataset must refuse", tr.name)
		}
		if _, err := tr.build(path, src, shape{nt: 32, band: sh.band}, resume); err == nil {
			t.Fatalf("%s: resume with different tile size must refuse", tr.name)
		}
		for name, build := range tr.mismatched {
			if _, err := build(path, src, sh, resume); err == nil {
				t.Fatalf("%s: resume with %s must refuse", tr.name, name)
			}
		}
		if _, err := tr.build(path, src, sh, resume); err != nil {
			t.Fatalf("%s: matching resume failed: %v", tr.name, err)
		}
	}
}

// checkpointOf fabricates the on-disk state of a build of the finished
// store ref killed after `tiles` tiles ending at dataOffset: the data
// file cut there, the sidecar holding those tiles' index entries, and the
// given manifest.
func checkpointOf(t *testing.T, ref []byte, manifest string, tiles int, dataOffset int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "inflight.store")
	index := ref[binary.LittleEndian.Uint64(ref[48:]):]
	for name, b := range map[string][]byte{
		path:                 ref[:dataOffset],
		SidecarPath(path):    index[:tiles*indexEntrySize],
		CheckpointPath(path): []byte(manifest),
	} {
		if err := os.WriteFile(name, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// TestFormatStability pins the on-disk bytes: the stores the golden build
// produces must hash to the digests recorded for their format version, by
// every build route, and a checkpoint manifest an earlier commit wrote
// mid-build must still parse and resume to those same bytes — an in-flight
// build survives the upgrade — unless it was written for an earlier format
// version, which must be refused rather than resumed into this one's bytes.
func TestFormatStability(t *testing.T) {
	g := goldenMatrix(t)
	for _, tr := range tiers {
		if tr.golden == "" {
			continue
		}
		ref := ramBytes(t, tr, g, goldenShape)
		if got := fmt.Sprintf("%x", sha256.Sum256(ref)); got != tr.golden {
			t.Fatalf("%s: in-RAM build hashes to %s, recorded %s", tr.name, got, tr.golden)
		}
		for name, rt := range sourceRoutes(t, g) {
			path := filepath.Join(t.TempDir(), "got.store")
			if _, err := tr.build(path, rt.src, goldenShape, rt.opt); err != nil {
				t.Fatalf("%s %s: %v", tr.name, name, err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(mustRead(t, path))); got != tr.golden {
				t.Fatalf("%s %s: hashes to %s, recorded %s", tr.name, name, got, tr.golden)
			}
		}
		path, src, _ := killedBuild(t, tr, g, goldenShape, 53/16+6)
		if _, err := tr.build(path, src, goldenShape, srcOpts{ioPanel: 16, resume: true}); err != nil {
			t.Fatalf("%s: resume: %v", tr.name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(mustRead(t, path))); got != tr.golden {
			t.Fatalf("%s killed+resumed: hashes to %s, recorded %s", tr.name, got, tr.golden)
		}

		if tr.parentManifest == "" {
			continue
		}
		if tr.oldManifest {
			if _, err := parseManifest(tr.format, []byte(tr.parentManifest)); err == nil || !strings.Contains(err.Error(), "version") {
				t.Fatalf("%s: an earlier version's manifest parsed: %v", tr.name, err)
			}
			path = filepath.Join(t.TempDir(), "old.store")
			if err := os.WriteFile(CheckpointPath(path), []byte(tr.parentManifest), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.build(path, ldbmSource(t, g, false), goldenShape, srcOpts{ioPanel: 16, resume: true}); err == nil || !strings.Contains(err.Error(), "version") {
				t.Fatalf("%s: resuming an earlier version's checkpoint returned %v", tr.name, err)
			}
			continue
		}
		m, err := parseManifest(tr.format, []byte(tr.parentManifest))
		if err != nil {
			t.Fatalf("%s: parent-commit manifest no longer parses: %v", tr.name, err)
		}
		path = checkpointOf(t, ref, tr.parentManifest, m.TilesWritten, m.DataOffset)
		st, err := tr.build(path, ldbmSource(t, g, false), goldenShape, srcOpts{ioPanel: 16, resume: true})
		if err != nil {
			t.Fatalf("%s: resuming the parent commit's checkpoint: %v", tr.name, err)
		}
		if st.StartStripe != m.StripesDone {
			t.Fatalf("%s: resumed at stripe %d, parent manifest says %d", tr.name, st.StartStripe, m.StripesDone)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(mustRead(t, path))); got != tr.golden {
			t.Fatalf("%s: parent checkpoint resumed to %s, want %s", tr.name, got, tr.golden)
		}
	}
}

// TestResumeRefusesDamagedCheckpoint: resume must not trust files the
// manifest does not describe. A data file shorter than the durable offset
// used to be zero-extended by Truncate and built into a store that opened
// cleanly and failed its first CRC; sidecar entries that do not chain to
// the durable offset are the same hole by another route.
func TestResumeRefusesDamagedCheckpoint(t *testing.T) {
	g := testMatrix(t, 64, 50, 3)
	sh := shape{nt: 16, band: 20}
	resume := srcOpts{ioPanel: 16, resume: true}
	for _, tr := range tiers {
		path, src, _ := killedBuild(t, tr, g, sh, 64/16+5)
		m, err := parseManifest(tr.format, mustRead(t, CheckpointPath(path)))
		if err != nil {
			t.Fatal(err)
		}
		data, sidecar := mustRead(t, path), mustRead(t, SidecarPath(path))

		if err := os.Truncate(path, m.DataOffset-1); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.build(path, src, sh, resume); err == nil || !strings.Contains(err.Error(), "short of the durable offset") {
			t.Fatalf("%s: resume over a short data file returned %v", tr.name, err)
		}

		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		bad := append([]byte{}, sidecar...)
		bad[8]++ // first tile's length: the chain no longer reaches DataOffset
		if err := os.WriteFile(SidecarPath(path), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.build(path, src, sh, resume); err == nil {
			t.Fatalf("%s: resume over a sidecar that does not chain to the durable offset succeeded", tr.name)
		}

		// Undamaged, the same checkpoint still resumes to the right bytes.
		if err := os.WriteFile(SidecarPath(path), sidecar, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.build(path, src, sh, resume); err != nil {
			t.Fatalf("%s: resume of the restored checkpoint: %v", tr.name, err)
		}
		if got := mustRead(t, path); string(got) != string(ramBytes(t, tr, g, sh)) {
			t.Fatalf("%s: resumed store differs from uninterrupted build", tr.name)
		}
	}
}

// TestSourceBuildMemoryBudget: the no-materialization guarantee. The
// build's total allocations must stay far below both the packed bit
// matrix and the n² result matrix — the two things an out-of-core build
// exists to never hold.
func TestSourceBuildMemoryBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("TotalAlloc budgets are meaningless under the race detector")
	}
	const (
		snps    = 2048
		samples = 65536
		nt      = 64
	)
	words := bitmat.WordsFor(samples)
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.ldbm")
	w, err := bitmat.CreateFile(gpath, snps, samples)
	if err != nil {
		t.Fatal(err)
	}
	// Stream the container into existence panel by panel: the full matrix
	// is never resident, in the test any more than in production.
	panel := bitmat.New(nt, samples)
	for lo := 0; lo < snps; lo += nt {
		for i := 0; i < nt; i++ {
			for wd := 0; wd < words; wd++ {
				panel.Data[i*words+wd] = uint64(lo+i+1) * 0x9e3779b97f4a7c15 >> (wd % 7)
			}
			panel.SNP(i)[words-1] &= panel.PadMask()
		}
		if err := w.WritePanel(panel); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := bitmat.OpenFile(gpath, false)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	matrixBytes := src.MatrixBytes()                // 16 MiB
	resultBytes := int64(snps) * int64(snps) * 8    // 32 MiB
	budget := min(matrixBytes, resultBytes) * 3 / 4 // must stay clearly below both

	// The blocked driver's pack arenas (2.5 MiB each) live in a
	// process-wide pool that every collection empties. How many a build
	// has to allocate afresh is timing, not the property under test: hold
	// the collector off and fill the pool with one unmeasured build.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	path := filepath.Join(dir, "g.store")
	opt := srcOpts{ioPanel: nt, checkpoint: true}
	if _, err := tiers[0].build(path, src, shape{nt: nt, band: 512}, opt); err != nil {
		t.Fatal(err)
	}
	for _, tr := range tiers {
		var before, after runtime.MemStats
		panels := blis.ReadStats()
		runtime.ReadMemStats(&before)
		if _, err := tr.build(path, src, shape{nt: nt, band: 512}, opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		// The input came through the prefetcher in panels, not whole.
		if st := blis.ReadStats(); st.PanelsRead == panels.PanelsRead || st.PanelBytesRead == panels.PanelBytesRead {
			t.Fatalf("%s: windowed build recorded no panel I/O", tr.name)
		}
		alloc := int64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("%s: build allocated %d bytes total (matrix %d, result %d, budget %d)",
			tr.name, alloc, matrixBytes, resultBytes, budget)
		if alloc > budget {
			t.Fatalf("%s: out-of-core build allocated %d bytes, budget %d — materializing something it shouldn't",
				tr.name, alloc, budget)
		}

		// And it still has to be a *correct* store.
		s, err := tr.open(mustRead(t, path))
		if err != nil {
			t.Fatal(err)
		}
		if s.SNPs() != snps {
			t.Fatalf("%s: store has %d SNPs, want %d", tr.name, s.SNPs(), snps)
		}
		s.Close()
	}
}

// TestCraftedRowPointers: a structurally valid LDSS file whose row
// pointers overshoot the entry count passes every index check and must
// then fail its tile decode with an error; it used to index the column
// array out of range. A store inside the residency budget decodes every
// tile when it opens, so it is refused there; with the budget forced to 0
// the file opens as it always did and the first query to decode the tile
// gets the error. A tile with a flipped payload bit takes the same two
// routes; an index whose entry counts disagree with the header never
// opens. Hostile files fail earlier, never differently.
func TestCraftedRowPointers(t *testing.T) {
	le := binary.LittleEndian
	valid := ramBytes(t, sparseTier("sparse", 0, false, "", ""), testMatrix(t, 16, 16, 41), shape{nt: 8})
	flipped := bytes.Clone(valid)
	flipped[le.Uint64(flipped[len(flipped)-indexEntrySize:])] ^= 0x40 // last tile, first payload byte
	miscounted := bytes.Clone(valid)
	le.PutUint64(miscounted[88:], le.Uint64(miscounted[88:])+1)

	for _, c := range []struct {
		name  string
		data  []byte
		lazy  bool   // opens when no tile is decoded at open
		wants string // in the error, wherever it surfaces
	}{
		{"row pointers", craftedRowPtrLDSS(t), true, "pointers decrease"},
		{"checksum", flipped, true, "checksum"},
		{"entry count", miscounted, false, "header says"},
	} {
		for _, budget := range []int64{-1, 0} {
			t.Run(fmt.Sprintf("%s/budget=%d", c.name, budget), func(t *testing.T) {
				if budget >= 0 {
					defer SetResidentBudgetForTest(budget)()
				}
				refused := func(what string, err error) {
					t.Helper()
					if err == nil || !strings.Contains(err.Error(), c.wants) {
						t.Fatalf("%s: error %v, want one naming %q", what, err, c.wants)
					}
				}
				s, err := OpenReader(bytes.NewReader(c.data), int64(len(c.data)), Options{})
				if budget < 0 || !c.lazy {
					refused("open", err)
					return
				}
				if err != nil {
					t.Fatalf("with nothing decoded at open the file should open: %v", err)
				}
				defer s.Close()
				_, err = s.MatVec(make([]float64, s.SNPs()))
				refused("MatVec over the bad tile", err)
				_, _, err = s.Lookup(s.SNPs()-1, s.SNPs()-1)
				refused("Lookup in the bad tile", err)
			})
		}
	}
}
