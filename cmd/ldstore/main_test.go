package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/popsim"
	"ldgemm/internal/seqio"
)

func runLdstore(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errBuf bytes.Buffer
	err := run(args, &out, &errBuf)
	return out.String(), errBuf.String(), err
}

func writeDataset(t *testing.T) string {
	t.Helper()
	m, err := popsim.Mosaic(40, 32, popsim.MosaicConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.ldgm")
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

func TestBuildInfoQuery(t *testing.T) {
	data := writeDataset(t)
	store := filepath.Join(t.TempDir(), "d.ldts")

	_, stderr, err := runLdstore(t, "build", "-in", data, "-out", store, "-tile", "16")
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if !strings.Contains(stderr, "wrote "+store) {
		t.Fatalf("build stderr %q", stderr)
	}

	stdout, _, err := runLdstore(t, "info", "-store", store)
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	var info map[string]any
	if err := json.Unmarshal([]byte(stdout), &info); err != nil {
		t.Fatalf("info output %q: %v", stdout, err)
	}
	if info["snps"] != 40.0 || info["stat"] != "r2" || info["tiles"] != 6.0 || info["count_bytes"] != 2.0 {
		t.Fatalf("info %+v", info)
	}
	for _, gone := range []string{"compressed", "compression_ratio"} {
		if _, ok := info[gone]; ok {
			t.Fatalf("info still reports %q: %+v", gone, info)
		}
	}

	stdout, _, err = runLdstore(t, "query", "-store", store, "-i", "3", "-j", "17")
	if err != nil {
		t.Fatalf("pair query: %v", err)
	}
	var pair struct {
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal([]byte(stdout), &pair); err != nil {
		t.Fatal(err)
	}
	if pair.Value < 0 || pair.Value > 1 {
		t.Fatalf("r2 %v outside [0,1]", pair.Value)
	}

	stdout, _, err = runLdstore(t, "query", "-store", store, "-start", "5", "-end", "9")
	if err != nil {
		t.Fatalf("region query: %v", err)
	}
	var region struct {
		Values [][]float64 `json:"values"`
	}
	if err := json.Unmarshal([]byte(stdout), &region); err != nil {
		t.Fatal(err)
	}
	if len(region.Values) != 4 || len(region.Values[0]) != 4 {
		t.Fatalf("region shape %d", len(region.Values))
	}

	stdout, _, err = runLdstore(t, "query", "-store", store, "-top", "5")
	if err != nil {
		t.Fatalf("top query: %v", err)
	}
	var top struct {
		Pairs []struct {
			I     int     `json:"i"`
			J     int     `json:"j"`
			Value float64 `json:"value"`
		} `json:"pairs"`
	}
	if err := json.Unmarshal([]byte(stdout), &top); err != nil {
		t.Fatal(err)
	}
	if len(top.Pairs) != 5 {
		t.Fatalf("top returned %d pairs", len(top.Pairs))
	}
	for i := 1; i < len(top.Pairs); i++ {
		if top.Pairs[i].Value > top.Pairs[i-1].Value {
			t.Fatal("top pairs not sorted")
		}
	}
}

// TestBuildFromLDBM: builds from an on-disk .ldbm container — windowed
// and checkpointed — are byte-identical to the in-RAM build of
// the same dataset.
func TestBuildFromLDBM(t *testing.T) {
	dir := t.TempDir()
	m, err := popsim.Mosaic(48, 40, popsim.MosaicConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ldgm := filepath.Join(dir, "d.ldgm")
	f, err := os.Create(ldgm)
	if err != nil {
		t.Fatal(err)
	}
	if err := seqio.WriteBinary(f, m); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ldbm := filepath.Join(dir, "d.ldbm")
	if err := bitmat.WriteFile(ldbm, m); err != nil {
		t.Fatal(err)
	}

	ref := filepath.Join(dir, "ref.ldts")
	if _, _, err := runLdstore(t, "build", "-in", ldgm, "-out", ref, "-tile", "16"); err != nil {
		t.Fatalf("reference build: %v", err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	for name, extra := range map[string][]string{
		"windowed":   {"-io-window", "8"},
		"checkpoint": {"-checkpoint"},
	} {
		out := filepath.Join(dir, name+".ldts")
		args := append([]string{"build", "-in", ldbm, "-out", out, "-tile", "16"}, extra...)
		if _, _, err := runLdstore(t, args...); err != nil {
			t.Fatalf("%s build: %v", name, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s build differs from in-RAM build", name)
		}
	}
	// -resume with no prior checkpoint starts fresh and still matches.
	out := filepath.Join(dir, "resume.ldts")
	if _, _, err := runLdstore(t, "build", "-in", ldbm, "-out", out, "-tile", "16", "-resume"); err != nil {
		t.Fatalf("resume-fresh build: %v", err)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, want) {
		t.Fatal("resume-fresh build differs from in-RAM build")
	}
}

// TestBuildSplitChrom: a two-chromosome .bim splits the build into two
// stores, each byte-identical to a whole build of that row range.
func TestBuildSplitChrom(t *testing.T) {
	dir := t.TempDir()
	m, err := popsim.Mosaic(40, 32, popsim.MosaicConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ldbm := filepath.Join(dir, "d.ldbm")
	if err := bitmat.WriteFile(ldbm, m); err != nil {
		t.Fatal(err)
	}
	bim := make([]seqio.BimRecord, m.SNPs)
	for i := range bim {
		chrom := "1"
		if i >= 24 {
			chrom = "2"
		}
		bim[i] = seqio.BimRecord{Chrom: chrom, ID: "v", Pos: 1 + i, Allele1: 'G', Allele2: 'A'}
	}
	bimPath := filepath.Join(dir, "d.bim")
	bf, err := os.Create(bimPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := seqio.WriteBim(bf, bim); err != nil {
		t.Fatal(err)
	}
	bf.Close()

	out := filepath.Join(dir, "d.ldts")
	_, stderr, err := runLdstore(t, "build", "-in", ldbm, "-out", out, "-tile", "16", "-split-chrom", bimPath)
	if err != nil {
		t.Fatalf("split build: %v", err)
	}
	if !strings.Contains(stderr, "2 per-chromosome stores") {
		t.Fatalf("split not announced: %q", stderr)
	}
	for _, r := range []struct {
		chrom  string
		lo, hi int
	}{{"1", 0, 24}, {"2", 24, 40}} {
		sub := m.Slice(r.lo, r.hi)
		subLdgm := filepath.Join(dir, "sub"+r.chrom+".ldgm")
		f, err := os.Create(subLdgm)
		if err != nil {
			t.Fatal(err)
		}
		if err := seqio.WriteBinary(f, sub); err != nil {
			t.Fatal(err)
		}
		f.Close()
		ref := filepath.Join(dir, "ref"+r.chrom+".ldts")
		if _, _, err := runLdstore(t, "build", "-in", subLdgm, "-out", ref, "-tile", "16"); err != nil {
			t.Fatal(err)
		}
		want, _ := os.ReadFile(ref)
		got, err := os.ReadFile(filepath.Join(dir, "d.chr"+r.chrom+".ldts"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("chr%s store differs from whole-matrix build of rows [%d,%d)", r.chrom, r.lo, r.hi)
		}
	}

	// Non-contiguous chromosome blocks must be refused.
	bim[10].Chrom = "2"
	bf, err = os.Create(bimPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := seqio.WriteBim(bf, bim); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	if _, _, err := runLdstore(t, "build", "-in", ldbm, "-out", out, "-split-chrom", bimPath); err == nil {
		t.Fatal("interleaved chromosomes accepted")
	}
}

// TestConvert: .bed filesets stream into .ldbm containers that match the
// in-RAM pseudo-phase path; .ldgm inputs rewrite directly.
func TestConvert(t *testing.T) {
	dir := t.TempDir()
	m, err := popsim.Mosaic(30, 24, popsim.MosaicConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	geno, err := bitmat.FromHaplotypes(m)
	if err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(dir, "d")
	err = seqio.WritePlinkFileset(prefix, geno,
		seqio.DefaultBim(m.SNPs, "1", 100), seqio.DefaultFam(geno.Samples))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "d.ldbm")
	_, stderr, err := runLdstore(t, "convert", "-in", prefix+".bed", "-out", out, "-window", "7")
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	if !strings.Contains(stderr, "converted") {
		t.Fatalf("convert stderr %q", stderr)
	}
	f, err := bitmat.OpenFile(out, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Load()
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	want, err := geno.PseudoPhase()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("converted container differs from whole-matrix PseudoPhase")
	}

	ldgm := writeDataset(t)
	out2 := filepath.Join(dir, "g.ldbm")
	if _, _, err := runLdstore(t, "convert", "-in", ldgm, "-out", out2); err != nil {
		t.Fatalf("ldgm convert: %v", err)
	}
	if _, _, err := runLdstore(t, "convert", "-in", ldgm); err == nil {
		t.Fatal("convert without -out accepted")
	}
	if _, _, err := runLdstore(t, "convert", "-in", filepath.Join(dir, "missing.bed"), "-out", out2); err == nil {
		t.Fatal("convert of missing fileset accepted")
	}
}

func TestCLIErrors(t *testing.T) {
	if _, _, err := runLdstore(t); err == nil {
		t.Fatal("no subcommand accepted")
	}
	if _, _, err := runLdstore(t, "frobnicate"); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if _, _, err := runLdstore(t, "build"); err == nil {
		t.Fatal("build without flags accepted")
	}
	if _, _, err := runLdstore(t, "info"); err == nil {
		t.Fatal("info without -store accepted")
	}
	if _, _, err := runLdstore(t, "query", "-store", filepath.Join(t.TempDir(), "missing.ldts"), "-top", "3"); err == nil {
		t.Fatal("query on missing store accepted")
	}
	data := writeDataset(t)
	if _, _, err := runLdstore(t, "build", "-in", data,
		"-out", filepath.Join(t.TempDir(), "x.ldss"), "-threshold", "0.1", "-stat", "nope"); err == nil {
		t.Fatal("bad stat accepted")
	}
	// A complete store holds counts and serves every statistic: -stat is a
	// pruned build's, and a complete build that sets it, even to r2, fails
	// saying so; -compress is gone.
	for _, stat := range []string{"r2", "d"} {
		if _, _, err := runLdstore(t, "build", "-in", data, "-out", filepath.Join(t.TempDir(), "x.ldts"), "-stat", stat); err == nil ||
			!strings.Contains(err.Error(), "-stat needs -threshold or -band") {
			t.Fatalf("dense build with -stat %s: %v", stat, err)
		}
	}
	if _, _, err := runLdstore(t, "build", "-in", data, "-out", filepath.Join(t.TempDir(), "x.ldts"), "-compress"); err == nil {
		t.Fatal("-compress accepted")
	}
	store := filepath.Join(t.TempDir(), "q.ldts")
	if _, _, err := runLdstore(t, "build", "-in", data, "-out", store); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runLdstore(t, "query", "-store", store); err == nil {
		t.Fatal("query without a selector accepted")
	}
	if _, _, err := runLdstore(t, "query", "-store", store, "-i", "0", "-j", "400"); err == nil {
		t.Fatal("out-of-range pair accepted")
	}
}

// TestBuildSparse: a build with a threshold and a band writes a pruned
// (LDSS) store byte-identical to a direct library build, info opens it by
// its magic, a pruned store answers pairs but not top-K, and the flags
// that are gone are refused.
func TestBuildSparse(t *testing.T) {
	dir := t.TempDir()
	m, err := popsim.Mosaic(48, 40, popsim.MosaicConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ldbm := filepath.Join(dir, "d.ldbm")
	if err := bitmat.WriteFile(ldbm, m); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "d.ldss")
	_, stderr, err := runLdstore(t, "build", "-in", ldbm, "-out", out,
		"-tile", "16", "-threshold", "0.1", "-band", "20")
	if err != nil {
		t.Fatalf("sparse build: %v", err)
	}
	if !strings.Contains(stderr, "pruned r2") || !strings.Contains(stderr, "band 20") {
		t.Fatalf("sparse build stderr %q", stderr)
	}
	ref := filepath.Join(dir, "ref.ldss")
	if _, err := ldstore.BuildFile(ref, m, ldstore.BuildOptions{
		TileSize: 16, Threshold: 0.1, Banded: true, Band: 20,
	}); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(out)
	want, _ := os.ReadFile(ref)
	if !bytes.Equal(got, want) {
		t.Fatal("CLI sparse build differs from direct library build")
	}

	stdout, _, err := runLdstore(t, "info", "-store", out)
	if err != nil {
		t.Fatalf("sparse info: %v", err)
	}
	var info struct {
		SNPs      int     `json:"snps"`
		Threshold float64 `json:"threshold"`
		Banded    bool    `json:"banded"`
		Band      int     `json:"band"`
		NNZ       int64   `json:"nnz"`
	}
	if err := json.Unmarshal([]byte(stdout), &info); err != nil {
		t.Fatalf("info output %q: %v", stdout, err)
	}
	if info.SNPs != 48 || info.Threshold != 0.1 || !info.Banded || info.Band != 20 {
		t.Fatalf("sparse info %+v", info)
	}

	if _, _, err := runLdstore(t, "query", "-store", out, "-i", "3", "-j", "5"); err != nil {
		t.Fatalf("pair query on a pruned store: %v", err)
	}
	if _, _, err := runLdstore(t, "query", "-store", out, "-top", "3"); err == nil {
		t.Fatal("top-K from a pruned store accepted")
	}

	// -sparse is gone (a threshold or a band makes a build pruned), as is
	// -compress; a negative threshold is refused.
	for _, flags := range [][]string{{"-sparse"}, {"-threshold", "0.1", "-compress"}, {"-threshold", "-0.5"}} {
		if _, _, err := runLdstore(t, append([]string{"build", "-in", ldbm, "-out", out}, flags...)...); err == nil {
			t.Fatalf("build %v accepted", flags)
		}
	}
}

// TestBuildSplitChromParallel: a parallel split build produces files
// byte-identical to a sequential (-split-workers 1) run and logs
// per-chromosome progress.
func TestBuildSplitChromParallel(t *testing.T) {
	dir := t.TempDir()
	m, err := popsim.Mosaic(60, 32, popsim.MosaicConfig{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ldbm := filepath.Join(dir, "d.ldbm")
	if err := bitmat.WriteFile(ldbm, m); err != nil {
		t.Fatal(err)
	}
	chroms := []string{"1", "2", "3", "4"}
	bim := make([]seqio.BimRecord, m.SNPs)
	for i := range bim {
		bim[i] = seqio.BimRecord{Chrom: chroms[i/15], ID: "v", Pos: 1 + i, Allele1: 'G', Allele2: 'A'}
	}
	bimPath := filepath.Join(dir, "d.bim")
	bf, err := os.Create(bimPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := seqio.WriteBim(bf, bim); err != nil {
		t.Fatal(err)
	}
	bf.Close()

	seqDir, parDir := filepath.Join(dir, "seq"), filepath.Join(dir, "par")
	for _, d := range []string{seqDir, parDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := runLdstore(t, "build", "-in", ldbm, "-out", filepath.Join(seqDir, "d.ldts"),
		"-tile", "16", "-split-chrom", bimPath, "-split-workers", "1"); err != nil {
		t.Fatalf("sequential split: %v", err)
	}
	_, stderr, err := runLdstore(t, "build", "-in", ldbm, "-out", filepath.Join(parDir, "d.ldts"),
		"-tile", "16", "-split-chrom", bimPath, "-split-workers", "3")
	if err != nil {
		t.Fatalf("parallel split: %v", err)
	}
	if !strings.Contains(stderr, "4 per-chromosome stores") {
		t.Fatalf("split summary missing: %q", stderr)
	}
	for _, c := range chroms {
		if !strings.Contains(stderr, "chromosome "+c+": building") {
			t.Fatalf("chromosome %s progress missing: %q", c, stderr)
		}
		want, err := os.ReadFile(filepath.Join(seqDir, "d.chr"+c+".ldts"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(parDir, "d.chr"+c+".ldts"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("chr%s parallel store differs from sequential", c)
		}
	}

	// Sparse split builds ride the same pool.
	if _, _, err := runLdstore(t, "build", "-in", ldbm, "-out", filepath.Join(parDir, "d.ldss"),
		"-tile", "16", "-threshold", "0.2", "-split-chrom", bimPath, "-split-workers", "2"); err != nil {
		t.Fatalf("sparse split: %v", err)
	}
	for _, c := range chroms {
		if _, err := os.Stat(filepath.Join(parDir, "d.chr"+c+".ldss")); err != nil {
			t.Fatalf("sparse chr%s store missing: %v", c, err)
		}
	}
}

// TestConvertDurability: convert fsyncs the temp file before renaming it
// into place, so a crash can never leave a torn file under the final
// name.
func TestConvertDurability(t *testing.T) {
	origSync, origRename := syncFile, renameFile
	defer func() { syncFile, renameFile = origSync, origRename }()
	var events []string
	syncFile = func(f *os.File) error {
		events = append(events, "sync "+filepath.Base(f.Name()))
		return origSync(f)
	}
	renameFile = func(from, to string) error {
		events = append(events, "rename "+filepath.Base(from)+" -> "+filepath.Base(to))
		return origRename(from, to)
	}

	dir := t.TempDir()
	out := filepath.Join(dir, "g.ldbm")
	if _, _, err := runLdstore(t, "convert", "-in", writeDataset(t), "-out", out); err != nil {
		t.Fatalf("convert: %v", err)
	}
	want := []string{"sync g.ldbm.tmp", "rename g.ldbm.tmp -> g.ldbm"}
	if len(events) != 2 || events[0] != want[0] || events[1] != want[1] {
		t.Fatalf("durability events %q, want %q", events, want)
	}
	if _, err := os.Stat(out + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file survived: %v", err)
	}
	if f, err := bitmat.OpenFile(out, false); err != nil {
		t.Fatalf("converted container unreadable: %v", err)
	} else {
		f.Close()
	}

	// A failed rename must remove the temp file and fail the convert.
	renameFile = func(from, to string) error { return os.ErrPermission }
	out2 := filepath.Join(dir, "h.ldbm")
	if _, _, err := runLdstore(t, "convert", "-in", writeDataset(t), "-out", out2); err == nil {
		t.Fatal("convert with failing rename succeeded")
	}
	if _, err := os.Stat(out2 + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file survived failed rename: %v", err)
	}
}
