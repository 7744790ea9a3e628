package bitmat

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"unsafe"
)

// This file implements the .ldbm container: the bit-packed word-plane
// matrix made durable in exactly its in-RAM layout, so each panel the
// GEMM kernels pack is one read into a buffer the scan owns, without the
// matrix ever being resident. It is the storage
// half of the out-of-core build pipeline; the panel-pair scheduler that
// walks it lives in internal/core.
//
// File layout (all integers little-endian):
//
//	off size field
//	  0    4 magic "LDBM"
//	  4    4 version (uint32, currently 1)
//	  8    4 flags (none defined; zero)
//	 12    4 reserved (zero)
//	 16    8 SNPs
//	 24    8 samples
//	 32    8 dataset fingerprint (FNV-1a 64 over dims + packed words,
//	         identical to Matrix.Fingerprint)
//	 40   24 reserved (zero)
//	 64      data: SNPs × WordsFor(samples) uint64 words, SNP-major
//
// The fixed 64-byte header keeps the word plane 8-byte aligned, so on a
// little-endian host a panel read lands directly in a Matrix's words.

// Source provides read-only, SNP-major panel access to a bit matrix that
// may or may not be memory-resident. It is the abstraction the streaming
// LD drivers and the tile-store builder consume: an in-RAM Matrix (via
// MemSource) and a windowed-read .ldbm file both satisfy it, so one build
// path serves every scale.
type Source interface {
	// NumSNPs and NumSamples return the matrix dimensions.
	NumSNPs() int
	NumSamples() int
	// Panel returns SNPs [lo, hi) as a Matrix sharing the source's sample
	// geometry. An in-memory source returns a zero-copy view and ignores
	// buf; a windowed source fills buf (allocating or growing it when nil
	// or too small) and returns it. Concurrent Panel calls with distinct
	// buffers are safe — the prefetcher relies on this.
	Panel(lo, hi int, buf *Matrix) (*Matrix, error)
	// Fingerprint returns the dataset fingerprint (dims + packed words).
	Fingerprint() uint64
}

// MemSource adapts a resident Matrix to the Source interface.
type MemSource struct {
	M *Matrix
	// fp caches the O(data) fingerprint after the first request.
	fp     uint64
	hashed bool
}

// NewMemSource wraps a resident matrix as a Source.
func NewMemSource(m *Matrix) *MemSource { return &MemSource{M: m} }

// NumSNPs returns the SNP count.
func (s *MemSource) NumSNPs() int { return s.M.SNPs }

// NumSamples returns the sample count.
func (s *MemSource) NumSamples() int { return s.M.Samples }

// Panel returns a zero-copy slice view; buf is ignored.
func (s *MemSource) Panel(lo, hi int, _ *Matrix) (*Matrix, error) {
	if lo < 0 || hi < lo || hi > s.M.SNPs {
		return nil, fmt.Errorf("bitmat: panel [%d,%d) of %d SNPs", lo, hi, s.M.SNPs)
	}
	return s.M.Slice(lo, hi), nil
}

// Fingerprint hashes the matrix once and caches the digest. Not safe for
// the very first call to race with itself; the builders call it once up
// front, before any parallel phase.
func (s *MemSource) Fingerprint() uint64 {
	if !s.hashed {
		s.fp = s.M.Fingerprint()
		s.hashed = true
	}
	return s.fp
}

// Container constants.
const (
	ldbmHeaderSize = 64
	ldbmVersion    = 1
)

var ldbmMagic = [4]byte{'L', 'D', 'B', 'M'}

// MaxFileSNPs caps the dimensions OpenFile will trust from a header, so a
// corrupt file cannot drive an implausible window allocation.
const (
	maxFileSNPs    = 1 << 40
	maxFileSamples = 1 << 40
)

func encodeLDBMHeader(snps, samples int, fingerprint uint64) []byte {
	b := make([]byte, ldbmHeaderSize)
	copy(b[0:4], ldbmMagic[:])
	binary.LittleEndian.PutUint32(b[4:], ldbmVersion)
	binary.LittleEndian.PutUint64(b[16:], uint64(snps))
	binary.LittleEndian.PutUint64(b[24:], uint64(samples))
	binary.LittleEndian.PutUint64(b[32:], fingerprint)
	return b
}

// FileWriter writes a .ldbm container SNP panel by SNP panel, so datasets
// far larger than memory can be produced by a streaming generator or
// format converter: only the current panel is ever resident. The
// fingerprint accumulates as panels arrive and is patched into the header
// on Close.
type FileWriter struct {
	f       *os.File
	bw      *bufio.Writer
	snps    int
	samples int
	words   int
	written int
	hash    *FingerprintHash
	buf     []byte
}

// CreateFile starts a .ldbm container for a snps×samples matrix. Panels
// must then be appended in SNP order with WritePanel until exactly snps
// SNPs have been written, and the writer closed.
func CreateFile(path string, snps, samples int) (*FileWriter, error) {
	if snps < 0 || samples < 0 {
		return nil, fmt.Errorf("bitmat: invalid ldbm dimensions %d×%d", snps, samples)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &FileWriter{
		f: f, bw: bufio.NewWriterSize(f, 1<<20),
		snps: snps, samples: samples, words: WordsFor(samples),
		hash: NewFingerprintHash(snps, samples),
		buf:  make([]byte, 8),
	}
	// Placeholder header; the fingerprint lands on Close.
	if _, err := w.bw.Write(encodeLDBMHeader(snps, samples, 0)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return w, nil
}

// WritePanel appends the SNPs of panel (which must match the container's
// sample count) to the data section.
func (w *FileWriter) WritePanel(panel *Matrix) error {
	if panel.Samples != w.samples {
		return fmt.Errorf("bitmat: ldbm panel has %d samples, want %d", panel.Samples, w.samples)
	}
	if w.written+panel.SNPs > w.snps {
		return fmt.Errorf("bitmat: ldbm overflow: %d+%d SNPs of %d", w.written, panel.SNPs, w.snps)
	}
	for _, word := range panel.Data {
		binary.LittleEndian.PutUint64(w.buf, word)
		if _, err := w.bw.Write(w.buf); err != nil {
			return err
		}
	}
	w.hash.AddWords(panel.Data)
	w.written += panel.SNPs
	return nil
}

// Close flushes the data, verifies every SNP arrived, patches the
// fingerprint into the header, and syncs the file.
func (w *FileWriter) Close() error {
	if w.written != w.snps {
		w.f.Close()
		return fmt.Errorf("bitmat: ldbm short write: %d of %d SNPs", w.written, w.snps)
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	if _, err := w.f.WriteAt(encodeLDBMHeader(w.snps, w.samples, w.hash.Sum64()), 0); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Abort closes the writer and removes the partial container — the error
// path of a streaming producer.
func (w *FileWriter) Abort() {
	w.f.Close()
	os.Remove(w.f.Name())
}

// WriteFile writes a resident matrix as a .ldbm container in one call.
func WriteFile(path string, m *Matrix) error {
	w, err := CreateFile(path, m.SNPs, m.Samples)
	if err != nil {
		return err
	}
	if err := w.WritePanel(m); err != nil {
		w.Abort()
		return err
	}
	if err := w.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

// File is a read-only .ldbm container read in windows: Panel reads the
// requested SNP range into a caller buffer with ReadAt, so resident
// memory is bounded by the window size regardless of file size, and a
// truncated or failing file is an error from the Panel call that meets
// it. All methods except Close are safe for concurrent use.
type File struct {
	f       *os.File
	path    string
	snps    int
	samples int
	words   int
	fp      uint64
}

// OpenFile opens a .ldbm container. The mapped parameter is ignored: every
// panel is a windowed read. It stays only because benchmark/batch.go
// passes it; ROADMAP item 8 removes it.
func OpenFile(path string, mapped bool) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	hb := make([]byte, ldbmHeaderSize)
	if _, err := f.ReadAt(hb, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("bitmat: reading ldbm header of %s: %w", path, err)
	}
	if [4]byte(hb[0:4]) != ldbmMagic {
		f.Close()
		return nil, fmt.Errorf("bitmat: %s: bad ldbm magic %q", path, hb[0:4])
	}
	if v := binary.LittleEndian.Uint32(hb[4:]); v != ldbmVersion {
		f.Close()
		return nil, fmt.Errorf("bitmat: %s: unsupported ldbm version %d", path, v)
	}
	snps := binary.LittleEndian.Uint64(hb[16:])
	samples := binary.LittleEndian.Uint64(hb[24:])
	if snps > maxFileSNPs || samples > maxFileSamples {
		f.Close()
		return nil, fmt.Errorf("bitmat: %s: implausible ldbm dimensions %d×%d", path, snps, samples)
	}
	lf := &File{
		f: f, path: path,
		snps: int(snps), samples: int(samples), words: WordsFor(int(samples)),
		fp: binary.LittleEndian.Uint64(hb[32:]),
	}
	want := int64(ldbmHeaderSize) + int64(lf.snps)*int64(lf.words)*8
	if fi.Size() != want {
		f.Close()
		return nil, fmt.Errorf("bitmat: %s: ldbm file is %d bytes, want %d for %d×%d", path, fi.Size(), want, snps, samples)
	}
	return lf, nil
}

// NumSNPs returns the SNP count.
func (f *File) NumSNPs() int { return f.snps }

// NumSamples returns the sample count.
func (f *File) NumSamples() int { return f.samples }

// Words returns the packed words per SNP.
func (f *File) Words() int { return f.words }

// Fingerprint returns the dataset fingerprint stamped at write time.
func (f *File) Fingerprint() uint64 { return f.fp }

// MatrixBytes returns the size of the packed word plane — what a resident
// load would allocate.
func (f *File) MatrixBytes() int64 { return int64(f.snps) * int64(f.words) * 8 }

func (f *File) checkRange(lo, hi int) error {
	if lo < 0 || hi < lo || hi > f.snps {
		return fmt.Errorf("bitmat: %s: panel [%d,%d) of %d SNPs", f.path, lo, hi, f.snps)
	}
	return nil
}

// Panel reads SNPs [lo, hi) into buf, which is allocated or grown as
// needed and returned.
func (f *File) Panel(lo, hi int, buf *Matrix) (*Matrix, error) {
	if err := f.checkRange(lo, hi); err != nil {
		return nil, err
	}
	n := (hi - lo) * f.words
	if buf == nil {
		buf = &Matrix{}
	}
	if cap(buf.Data) < n {
		buf.Data = make([]uint64, n)
	}
	buf.SNPs, buf.Samples, buf.Words = hi-lo, f.samples, f.words
	buf.Data = buf.Data[:n]
	if err := f.readWordsAt(buf.Data, int64(ldbmHeaderSize)+int64(lo)*int64(f.words)*8); err != nil {
		return nil, fmt.Errorf("bitmat: %s: reading panel [%d,%d): %w", f.path, lo, hi, err)
	}
	return buf, nil
}

// readWordsAt fills dst with little-endian words from the given byte
// offset. On little-endian hosts the read lands directly in dst's backing
// bytes; otherwise the words are decoded after a buffered read.
func (f *File) readWordsAt(dst []uint64, off int64) error {
	if len(dst) == 0 {
		return nil
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), len(dst)*8)
	if _, err := f.f.ReadAt(b, off); err != nil {
		return err
	}
	if !hostLittleEndian() {
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(b[i*8:])
		}
	}
	return nil
}

// hostLittleEndian reports the host byte order.
func hostLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// Close closes the file.
func (f *File) Close() error { return f.f.Close() }

// Load reads the whole container into a resident Matrix — the small-input
// convenience path, and the oracle the out-of-core tests compare against.
// The result owns its storage and its fingerprint is verified against
// the header.
func (f *File) Load() (*Matrix, error) {
	m, err := f.Panel(0, f.snps, &Matrix{})
	if err != nil {
		return nil, err
	}
	if got := m.Fingerprint(); got != f.fp {
		return nil, fmt.Errorf("bitmat: %s: fingerprint %016x does not match header %016x", f.path, got, f.fp)
	}
	return m, nil
}
