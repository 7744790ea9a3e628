package bitmat

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
)

// FingerprintHash computes the dataset fingerprint — FNV-1a 64 over the
// dimensions followed by every packed word in SNP-major order — without
// requiring the matrix to be resident: stream the words through AddWords
// in storage order and read the digest with Sum64. A whole-matrix
// convenience lives on Matrix.Fingerprint; the tile stores' headers and
// the .ldbm container header all carry this hash, so a store built out of
// core binds to exactly the same identity a server computing from the
// in-RAM matrix derives, and a server refuses to pair a store with a
// dataset whose fingerprint differs.
type FingerprintHash struct {
	h   hash.Hash64
	buf [8]byte
}

// NewFingerprintHash starts a fingerprint over a snps×samples matrix. The
// dimensions are folded in first, exactly as the historical whole-matrix
// hash did.
func NewFingerprintHash(snps, samples int) *FingerprintHash {
	f := &FingerprintHash{h: fnv.New64a()}
	binary.LittleEndian.PutUint64(f.buf[:], uint64(snps))
	f.h.Write(f.buf[:])
	binary.LittleEndian.PutUint64(f.buf[:], uint64(samples))
	f.h.Write(f.buf[:])
	return f
}

// AddWords folds packed words (SNP-major storage order) into the digest.
func (f *FingerprintHash) AddWords(words []uint64) {
	for _, w := range words {
		binary.LittleEndian.PutUint64(f.buf[:], w)
		f.h.Write(f.buf[:])
	}
}

// Sum64 returns the fingerprint of everything added so far.
func (f *FingerprintHash) Sum64() uint64 { return f.h.Sum64() }

// Fingerprint hashes the matrix (dimensions plus packed words) with
// FNV-1a 64 — the identity that binds tile stores, cluster bootstrap, and
// .ldbm containers to the dataset they were computed from.
func (m *Matrix) Fingerprint() uint64 {
	f := NewFingerprintHash(m.SNPs, m.Samples)
	f.AddWords(m.Data)
	return f.Sum64()
}
