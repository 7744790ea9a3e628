package seqio

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldgemm/internal/popsim"
)

func TestOpenMaybeGzipPlainAndCompressed(t *testing.T) {
	dir := t.TempDir()
	m, err := popsim.Mosaic(10, 20, popsim.MosaicConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := WriteBinary(&raw, m); err != nil {
		t.Fatal(err)
	}

	plain := filepath.Join(dir, "m.ldgm")
	if err := os.WriteFile(plain, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	zipped := filepath.Join(dir, "m.ldgm.gz")
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	zw.Write(raw.Bytes())
	zw.Close()
	if err := os.WriteFile(zipped, zbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Also a gzip file with a non-gz extension: magic detection must win.
	disguised := filepath.Join(dir, "m2.ldgm")
	if err := os.WriteFile(disguised, zbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{plain, zipped, disguised} {
		r, closer, err := OpenMaybeGzip(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got, err := ReadBinary(r)
		closer.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !got.Equal(m) {
			t.Fatalf("%s: round trip mismatch", path)
		}
	}
}

// TestLoadMatrix: every extension the loader routes, plain and gzipped,
// gives back the written matrix; a truncated file and a missing one are
// errors.
func TestLoadMatrix(t *testing.T) {
	dir := t.TempDir()
	m, err := popsim.Mosaic(12, 30, popsim.MosaicConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var bin, ms, vcf bytes.Buffer
	if err := WriteBinary(&bin, m); err != nil {
		t.Fatal(err)
	}
	pos := make([]float64, m.SNPs)
	sites := make([]VCFSite, m.SNPs)
	for i := range pos {
		pos[i] = float64(i+1) / float64(m.SNPs+1)
		sites[i] = VCFSite{Chrom: "1", Pos: 100 * (i + 1), Ref: 'A', Alt: 'G'}
	}
	if err := WriteMS(&ms, []MSReplicate{{Matrix: m, Positions: pos}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteVCF(&vcf, m, sites, 2); err != nil {
		t.Fatal(err)
	}
	gz := func(b []byte) []byte {
		var z bytes.Buffer
		zw := gzip.NewWriter(&z)
		zw.Write(b)
		zw.Close()
		return z.Bytes()
	}
	cases := []struct {
		name string
		data []byte
		ok   bool
	}{
		{"m.ms", ms.Bytes(), true},
		{"m.ms.gz", gz(ms.Bytes()), true},
		{"m.txt", ms.Bytes(), true},
		{"m.ldgm", bin.Bytes(), true},
		{"m.ldgm.gz", gz(bin.Bytes()), true},
		{"m.vcf", vcf.Bytes(), true},
		{"m.vcf.gz", gz(vcf.Bytes()), true},
		{"trunc.ldgm", bin.Bytes()[:bin.Len()-5], false},
	}
	for _, c := range cases {
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadMatrix(path)
		switch {
		case !c.ok && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.ok && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.ok && !got.Equal(m):
			t.Errorf("%s: matrix differs from the one written", c.name)
		}
	}
	if _, err := LoadMatrix(filepath.Join(dir, "missing.ldgm")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestOpenMaybeGzipMissing(t *testing.T) {
	if _, _, err := OpenMaybeGzip("/nonexistent/file"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestBimRoundTrip(t *testing.T) {
	recs := []BimRecord{
		{Chrom: "1", ID: "rs1", CM: 0.5, Pos: 100, Allele1: 'G', Allele2: 'A'},
		{Chrom: "X", ID: "", CM: 0, Pos: 2000, Allele1: 'T', Allele2: 'C'},
	}
	var buf bytes.Buffer
	if err := WriteBim(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBim(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d records", len(got))
	}
	if got[0] != recs[0] {
		t.Fatalf("record 0: %+v", got[0])
	}
	if got[1].ID != "." { // empty ID is written as "."
		t.Fatalf("record 1 ID %q", got[1].ID)
	}
}

func TestReadBimErrors(t *testing.T) {
	cases := map[string]string{
		"fields":  "1 rs1 0 100 G\n",
		"cm":      "1 rs1 x 100 G A\n",
		"pos":     "1 rs1 0 xx G A\n",
		"alleles": "1 rs1 0 100 GT A\n",
	}
	for name, in := range cases {
		if _, err := ReadBim(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFamRoundTrip(t *testing.T) {
	recs := []FamRecord{
		{FamilyID: "F1", SampleID: "s1", FatherID: "s9", MotherID: "s8", Sex: 1, Phenotype: "2"},
		{SampleID: "s2"},
	}
	var buf bytes.Buffer
	if err := WriteFam(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFam(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != recs[0] {
		t.Fatalf("record 0: %+v", got[0])
	}
	if got[1].FamilyID != "s2" || got[1].Phenotype != "-9" || got[1].FatherID != "" {
		t.Fatalf("defaults not applied: %+v", got[1])
	}
}

func TestReadFamErrors(t *testing.T) {
	if _, err := ReadFam(strings.NewReader("F s 0 0 5 -9\n")); err == nil {
		t.Fatal("bad sex code accepted")
	}
	if _, err := ReadFam(strings.NewReader("F s 0 0 1\n")); err == nil {
		t.Fatal("short line accepted")
	}
}

func TestDefaultBimFam(t *testing.T) {
	bim := DefaultBim(3, "2", 50)
	if len(bim) != 3 || bim[2].Pos != 101 || bim[0].Chrom != "2" {
		t.Fatalf("DefaultBim: %+v", bim)
	}
	fam := DefaultFam(2)
	if len(fam) != 2 || fam[1].SampleID != "sample_1" {
		t.Fatalf("DefaultFam: %+v", fam)
	}
}

func TestLDTextRoundTrip(t *testing.T) {
	recs := []LDRecord{
		{ChromA: "1", PosA: 100, IDA: "rs1", ChromB: "1", PosB: 250, IDB: "rs2", R2: 0.75, D: 0.12, DPrime: 0.9},
		{ChromA: "2", PosA: 5, IDA: "", ChromB: "2", PosB: 9, IDB: "", R2: 0, D: -0.01, DPrime: -0.5},
	}
	var buf bytes.Buffer
	if err := WriteLD(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d records", len(got))
	}
	if got[0] != recs[0] {
		t.Fatalf("record 0: %+v", got[0])
	}
	if got[1].IDA != "." || got[1].DPrime != -0.5 {
		t.Fatalf("record 1: %+v", got[1])
	}
}

func TestReadLDErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"bad header": "X\tY\n",
		"fields":     "CHR_A\tBP_A\tSNP_A\tCHR_B\tBP_B\tSNP_B\tR2\tD\tDP\n1\t2\n",
		"bad bp":     "CHR_A\tBP_A\tSNP_A\tCHR_B\tBP_B\tSNP_B\tR2\tD\tDP\n1\tx\t.\t1\t2\t.\t0\t0\t0\n",
		"bad r2":     "CHR_A\tBP_A\tSNP_A\tCHR_B\tBP_B\tSNP_B\tR2\tD\tDP\n1\t1\t.\t1\t2\t.\tz\t0\t0\n",
	}
	for name, in := range cases {
		if _, err := ReadLD(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
