package seqio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/popsim"
)

func randomReplicate(t *testing.T, seed int64, snps, samples int) MSReplicate {
	t.Helper()
	m, err := popsim.Mosaic(snps, samples, popsim.MosaicConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pos := make([]float64, snps)
	p := 0.0
	for i := range pos {
		p += rng.Float64() / float64(snps+1)
		pos[i] = p
	}
	return MSReplicate{Matrix: m, Positions: pos}
}

func TestMSRoundTrip(t *testing.T) {
	reps := []MSReplicate{
		randomReplicate(t, 1, 25, 12),
		randomReplicate(t, 2, 7, 12),
	}
	var buf bytes.Buffer
	if err := WriteMS(&buf, reps); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d replicates", len(got))
	}
	for r := range got {
		if !got[r].Matrix.Equal(reps[r].Matrix) {
			t.Fatalf("replicate %d matrix mismatch", r)
		}
		for i, p := range got[r].Positions {
			if diff := p - reps[r].Positions[i]; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("replicate %d position %d: %v vs %v", r, i, p, reps[r].Positions[i])
			}
		}
	}
}

func TestReadMSErrors(t *testing.T) {
	cases := map[string]string{
		"no separator":     "ms 4 1\nseed\n",
		"bad segsites":     "//\nsegsites: x\n",
		"missing pos":      "//\nsegsites: 2\n",
		"pos count":        "//\nsegsites: 2\npositions: 0.1\n01\n",
		"bad char":         "//\nsegsites: 2\npositions: 0.1 0.2\n0x\n",
		"row length":       "//\nsegsites: 2\npositions: 0.1 0.2\n011\n",
		"no rows":          "//\nsegsites: 2\npositions: 0.1 0.2\n",
		"early terminator": "//\nsegsites: 2\npositions: 0.1 0.2\n//\n",
	}
	for name, in := range cases {
		if _, err := ReadMS(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadMSZeroSegsites(t *testing.T) {
	reps, err := ReadMS(strings.NewReader("//\nsegsites: 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].Matrix.SNPs != 0 {
		t.Fatal("expected empty replicate")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	m, err := popsim.Mosaic(60, 130, popsim.MosaicConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("binary round trip mismatch")
	}
}

func TestReadBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("XXXX")); err == nil {
		t.Fatal("bad magic accepted")
	}
	m := bitmat.New(2, 70)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	// Truncate.
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// Corrupt padding.
	full := append([]byte(nil), buf.Bytes()...)
	full[len(full)-1] = 0xff
	if _, err := ReadBinary(bytes.NewReader(full)); err == nil {
		t.Fatal("corrupt padding accepted")
	}
}

func TestVCFRoundTripDiploid(t *testing.T) {
	m, err := popsim.Mosaic(15, 20, popsim.MosaicConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sites := make([]VCFSite, 15)
	for i := range sites {
		sites[i] = VCFSite{Chrom: "1", Pos: 100 + i*10, Ref: 'A', Alt: 'G'}
	}
	var buf bytes.Buffer
	if err := WriteVCF(&buf, m, sites, 2); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVCF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ploidy != 2 || len(got.SampleNames) != 10 {
		t.Fatalf("ploidy %d, %d samples", got.Ploidy, len(got.SampleNames))
	}
	if !got.Matrix.Equal(m) {
		t.Fatal("diploid VCF round trip mismatch")
	}
	for i, s := range got.Sites {
		if s.Pos != 100+i*10 || s.Ref != 'A' || s.Alt != 'G' {
			t.Fatalf("site %d = %+v", i, s)
		}
	}
}

func TestVCFRoundTripHaploid(t *testing.T) {
	m, err := popsim.Mosaic(8, 7, popsim.MosaicConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	sites := make([]VCFSite, 8)
	for i := range sites {
		sites[i] = VCFSite{Chrom: "2", Pos: i + 1, Ref: 'C', Alt: 'T'}
	}
	var buf bytes.Buffer
	if err := WriteVCF(&buf, m, sites, 1); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVCF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ploidy != 1 || !got.Matrix.Equal(m) {
		t.Fatal("haploid VCF round trip mismatch")
	}
}

func TestWriteVCFErrors(t *testing.T) {
	m := bitmat.New(2, 5)
	sites := make([]VCFSite, 2)
	if err := WriteVCF(&bytes.Buffer{}, m, sites[:1], 1); err == nil {
		t.Fatal("site count mismatch accepted")
	}
	if err := WriteVCF(&bytes.Buffer{}, m, sites, 3); err == nil {
		t.Fatal("ploidy 3 accepted")
	}
	if err := WriteVCF(&bytes.Buffer{}, m, sites, 2); err == nil {
		t.Fatal("odd haplotypes for diploid accepted")
	}
}

func TestReadVCFErrors(t *testing.T) {
	cases := map[string]string{
		"no header":    "1\t5\t.\tA\tG\t.\tPASS\t.\tGT\t0\n",
		"no samples":   "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\n",
		"multiallelic": "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts0\n1\t5\t.\tA\tG,T\t.\tPASS\t.\tGT\t0\n",
		"bad allele":   "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts0\n1\t5\t.\tA\tG\t.\tPASS\t.\tGT\t2\n",
		"bad pos":      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts0\n1\tx\t.\tA\tG\t.\tPASS\t.\tGT\t0\n",
	}
	for name, in := range cases {
		if _, err := ReadVCF(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBEDRoundTrip(t *testing.T) {
	hap, err := popsim.Mosaic(23, 54, popsim.MosaicConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g, err := bitmat.FromHaplotypes(hap)
	if err != nil {
		t.Fatal(err)
	}
	g.Set(3, 5, bitmat.GenoMissing) // exercise the missing code
	var buf bytes.Buffer
	if err := WriteBED(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBED(bytes.NewReader(buf.Bytes()), g.SNPs, g.Samples)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.SNPs; i++ {
		for s := 0; s < g.Samples; s++ {
			if got.Get(i, s) != g.Get(i, s) {
				t.Fatalf("genotype (%d,%d) mismatch", i, s)
			}
		}
	}
}

func TestReadBEDErrors(t *testing.T) {
	if _, err := ReadBED(strings.NewReader("xx"), 1, 1); err == nil {
		t.Fatal("short magic accepted")
	}
	if _, err := ReadBED(strings.NewReader("\x6c\x1b\x00\x00"), 1, 1); err == nil {
		t.Fatal("sample-major mode accepted")
	}
	var buf bytes.Buffer
	g := bitmat.NewGenotypeMatrix(4, 9)
	if err := WriteBED(&buf, g); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBED(bytes.NewReader(buf.Bytes()[:buf.Len()-1]), 4, 9); err == nil {
		t.Fatal("truncated bed accepted")
	}
	if _, err := ReadBED(bytes.NewReader(buf.Bytes()), 3, 9); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// Property: binary and ms round trips are lossless for arbitrary shapes.
func TestQuickRoundTrips(t *testing.T) {
	f := func(seed int64, n8, s8 uint8) bool {
		snps := int(n8%30) + 1
		samples := int(s8%70) + 2
		m, err := popsim.Mosaic(snps, samples, popsim.MosaicConfig{Seed: seed})
		if err != nil {
			return false
		}
		var bin bytes.Buffer
		if err := WriteBinary(&bin, m); err != nil {
			return false
		}
		back, err := ReadBinary(&bin)
		if err != nil || !back.Equal(m) {
			return false
		}
		pos := make([]float64, snps)
		for i := range pos {
			pos[i] = float64(i) / float64(snps)
		}
		var msbuf bytes.Buffer
		if err := WriteMS(&msbuf, []MSReplicate{{Matrix: m, Positions: pos}}); err != nil {
			return false
		}
		reps, err := ReadMS(&msbuf)
		if err != nil || len(reps) != 1 || !reps[0].Matrix.Equal(m) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
