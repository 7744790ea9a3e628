package bitmat

import (
	"os"
	"path/filepath"
	"testing"
)

func testMatrix(t *testing.T, snps, samples int) *Matrix {
	t.Helper()
	m := New(snps, samples)
	// A deterministic, irregular pattern exercising every word position.
	for i := 0; i < snps; i++ {
		for s := 0; s < samples; s++ {
			if (i*31+s*7)%5 == 0 || (i+s)%97 == 3 {
				m.SetBit(i, s)
			}
		}
	}
	return m
}

func TestLDBMRoundTrip(t *testing.T) {
	for _, dims := range [][2]int{{0, 0}, {1, 1}, {17, 5}, {64, 64}, {130, 201}} {
		m := testMatrix(t, dims[0], dims[1])
		path := filepath.Join(t.TempDir(), "m.ldbm")
		if err := WriteFile(path, m); err != nil {
			t.Fatalf("WriteFile(%v): %v", dims, err)
		}
		f, err := OpenFile(path, false)
		if err != nil {
			t.Fatalf("OpenFile: %v", err)
		}
		if f.NumSNPs() != m.SNPs || f.NumSamples() != m.Samples {
			t.Fatalf("dims %d×%d, want %d×%d", f.NumSNPs(), f.NumSamples(), m.SNPs, m.Samples)
		}
		if f.Fingerprint() != m.Fingerprint() {
			t.Fatalf("fingerprint %016x, want %016x", f.Fingerprint(), m.Fingerprint())
		}
		got, err := f.Load()
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if !got.Equal(m) {
			t.Fatalf("Load mismatch for dims %v", dims)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

func TestLDBMPanels(t *testing.T) {
	m := testMatrix(t, 73, 130)
	path := filepath.Join(t.TempDir(), "m.ldbm")
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var buf Matrix
	for lo := 0; lo < m.SNPs; lo += 17 {
		hi := min(lo+17, m.SNPs)
		p, err := f.Panel(lo, hi, &buf)
		if err != nil {
			t.Fatalf("Panel(%d,%d): %v", lo, hi, err)
		}
		if !p.Equal(m.Slice(lo, hi)) {
			t.Fatalf("panel [%d,%d) mismatch", lo, hi)
		}
	}
	if _, err := f.Panel(-1, 2, nil); err == nil {
		t.Fatal("negative panel range must error")
	}
	if _, err := f.Panel(0, m.SNPs+1, nil); err == nil {
		t.Fatal("overlong panel range must error")
	}
}

// TestLDBMStreamedWriterMatchesWhole: appending in ragged panels produces
// the same container bytes as one whole-matrix write.
func TestLDBMStreamedWriterMatchesWhole(t *testing.T) {
	m := testMatrix(t, 61, 77)
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole.ldbm")
	streamed := filepath.Join(dir, "streamed.ldbm")
	if err := WriteFile(whole, m); err != nil {
		t.Fatal(err)
	}
	w, err := CreateFile(streamed, m.SNPs, m.Samples)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < m.SNPs; {
		hi := min(lo+13, m.SNPs)
		if err := w.WritePanel(m.Slice(lo, hi)); err != nil {
			t.Fatalf("WritePanel(%d,%d): %v", lo, hi, err)
		}
		lo = hi
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(whole)
	b, _ := os.ReadFile(streamed)
	if string(a) != string(b) {
		t.Fatal("streamed container differs from whole-matrix write")
	}
}

func TestLDBMWriterShortWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.ldbm")
	w, err := CreateFile(path, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePanel(New(4, 8)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close after a short write must error")
	}
}

func TestLDBMOpenRejectsCorrupt(t *testing.T) {
	m := testMatrix(t, 9, 30)
	path := filepath.Join(t.TempDir(), "m.ldbm")
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	write := func(b []byte) string {
		p := filepath.Join(t.TempDir(), "bad.ldbm")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for name, mut := range map[string]func([]byte) []byte{
		"magic":     func(b []byte) []byte { c := append([]byte(nil), b...); c[0] = 'X'; return c },
		"version":   func(b []byte) []byte { c := append([]byte(nil), b...); c[4] = 9; return c },
		"truncated": func(b []byte) []byte { return b[:len(b)-3] },
		"padded":    func(b []byte) []byte { return append(append([]byte(nil), b...), 0) },
		"short":     func(b []byte) []byte { return b[:10] },
	} {
		if _, err := OpenFile(write(mut(data)), false); err == nil {
			t.Fatalf("%s: corrupt container must not open", name)
		}
	}
}

func TestMemSource(t *testing.T) {
	m := testMatrix(t, 20, 40)
	s := NewMemSource(m)
	if s.NumSNPs() != 20 || s.NumSamples() != 40 {
		t.Fatal("MemSource dims")
	}
	if s.Fingerprint() != m.Fingerprint() {
		t.Fatal("MemSource fingerprint")
	}
	p, err := s.Panel(3, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(m.Slice(3, 9)) {
		t.Fatal("MemSource panel mismatch")
	}
	if &p.Data[0] != &m.Data[3*m.Words] {
		t.Fatal("MemSource panel must be zero-copy")
	}
	if _, err := s.Panel(5, 30, nil); err == nil {
		t.Fatal("out-of-range panel must error")
	}
}
