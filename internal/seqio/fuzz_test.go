package seqio

import (
	"bytes"
	"strings"
	"testing"

	"ldgemm/internal/bitmat"
)

// The fuzz targets assert the parsers never panic and that anything they
// accept survives a write/re-read round trip. `go test` runs the seed
// corpus; `go test -fuzz=FuzzReadMS ./internal/seqio` explores further.

func FuzzReadMS(f *testing.F) {
	f.Add("//\nsegsites: 2\npositions: 0.1 0.2\n01\n10\n")
	f.Add("//\nsegsites: 0\n")
	f.Add("ms 4 1\n\n//\nsegsites: 1\npositions: 0.5\n1\n0\n")
	f.Add("//\nsegsites: 3\npositions: 0.1 0.2\n010\n")
	f.Add("//\nsegsites: -1\n")
	f.Fuzz(func(t *testing.T, in string) {
		reps, err := ReadMS(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMS(&buf, reps); err != nil {
			t.Fatalf("accepted input failed to re-serialize: %v", err)
		}
		again, err := ReadMS(&buf)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if len(again) != len(reps) {
			t.Fatalf("round trip changed replicate count %d → %d", len(reps), len(again))
		}
		for r := range reps {
			if !again[r].Matrix.Equal(reps[r].Matrix) {
				t.Fatalf("round trip changed replicate %d", r)
			}
		}
	})
}

func FuzzReadVCF(f *testing.F) {
	f.Add("#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts0\n1\t5\t.\tA\tG\t.\tPASS\t.\tGT\t0|1\n")
	f.Add("#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts0\ts1\n1\t5\trs1\tC\tT\t.\t.\t.\tGT\t1\t0\n")
	f.Add("##meta\n#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts0\n")
	f.Add("1\t5\t.\tA\tG\t.\tPASS\t.\tGT\t0\n")
	f.Fuzz(func(t *testing.T, in string) {
		v, err := ReadVCF(strings.NewReader(in))
		if err != nil {
			return
		}
		if v.Matrix == nil {
			t.Fatal("accepted VCF with nil matrix")
		}
		if len(v.Sites) != v.Matrix.SNPs {
			t.Fatalf("sites %d vs SNPs %d", len(v.Sites), v.Matrix.SNPs)
		}
		if v.Ploidy != 1 && v.Ploidy != 2 {
			t.Fatalf("ploidy %d", v.Ploidy)
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	m := mustMosaic(f, 5, 10)
	if err := WriteBinary(&seed, m); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("LDGM"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		// Accepted inputs must satisfy the padding invariant.
		if err := got.ValidatePadding(); err != nil {
			t.Fatal(err)
		}
	})
}

func FuzzReadLD(f *testing.F) {
	f.Add("CHR_A\tBP_A\tSNP_A\tCHR_B\tBP_B\tSNP_B\tR2\tD\tDP\n1\t1\trs1\t1\t2\trs2\t0.5\t0.1\t0.9\n")
	f.Add("CHR_A\tBP_A\tSNP_A\tCHR_B\tBP_B\tSNP_B\tR2\tD\tDP\n")
	f.Fuzz(func(t *testing.T, in string) {
		recs, err := ReadLD(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteLD(&buf, recs); err != nil {
			t.Fatalf("accepted records failed to write: %v", err)
		}
	})
}

// mustMosaic builds a small deterministic matrix for fuzz seeds.
func mustMosaic(f *testing.F, snps, samples int) *bitmat.Matrix {
	f.Helper()
	m := bitmat.New(snps, samples)
	for i := 0; i < snps; i++ {
		m.SetBit(i, (i*7)%samples)
	}
	return m
}
