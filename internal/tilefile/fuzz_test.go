package tilefile_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ldgemm/internal/ldstore"
	"ldgemm/internal/tilefile"
)

// fuzzShape is the geometry of the fuzz seeds: 20 SNPs at tile size 8 is
// three ragged tile bands, small enough to mutate densely.
var fuzzShape = shape{nt: 8, band: 6}

// seedStore returns the raw bytes of the tier's store over the fuzz
// matrix, the seed every mutation starts from.
func seedStore(tb testing.TB, tr tier) []byte {
	return ramBytes(tb, tr, testMatrix(tb, 20, 16, 41), fuzzShape)
}

// hostileCounts returns LDTS stores that open or read to an error, made
// from a valid one of count width w: a joint count above N and an allele
// count above N (each under a correct checksum), an allele-count table cut
// short or failing its checksum, a count width that disagrees with N, and
// a store of the earlier format version (f64 tiles).
func hostileCounts(tb testing.TB, valid []byte, w int) map[string][]byte {
	tb.Helper()
	le := binary.LittleEndian
	hs := ldtsFormat.HeaderSize()
	snps, samples := int(le.Uint64(valid[16:])), le.Uint64(valid[24:])
	put := func(b []byte, v uint64) {
		if w == 2 {
			le.PutUint16(b, uint16(v))
		} else {
			le.PutUint32(b, uint32(v))
		}
	}
	edit := func(mutate func(b []byte)) []byte {
		b := bytes.Clone(valid)
		mutate(b)
		return b
	}
	table := func(b []byte) []byte { return b[hs : hs+snps*w] }
	v1, err := os.ReadFile(filepath.Join("..", "ldstore", "testdata", "v1.ldts"))
	if err != nil {
		tb.Fatal(err)
	}
	return map[string][]byte{
		"count above N": edit(func(b []byte) {
			entry := b[le.Uint64(b[48:]):] // tile (0, 0)
			payload := b[le.Uint64(entry):][:le.Uint32(entry[8:])]
			put(payload[w:], samples+1)
			le.PutUint32(entry[12:], crc32.ChecksumIEEE(payload))
		}),
		"allele count above N": edit(func(b []byte) {
			put(table(b)[w:], samples+1)
			le.PutUint32(b[hs-8:], crc32.ChecksumIEEE(table(b)))
		}),
		"short allele-count table":    valid[:hs+w+1],
		"allele-count table checksum": edit(func(b []byte) { table(b)[1] ^= 0x10 }),
		"width disagrees with N":      edit(func(b []byte) { le.PutUint32(b[36:], uint32(6-w)) }),
		"version 1":                   v1,
	}
}

// FuzzOpen feeds arbitrary bytes to every codec's OpenReader and, when a
// file opens, exercises every query and operator path. The invariant
// under fuzzing: corrupt input produces an error, never a panic, an index
// out of range, or an allocation driven by an unvalidated length field.
func FuzzOpen(f *testing.F) {
	f.Add([]byte{})
	wide := seedWide(f)
	for _, seed := range []struct {
		tr    tier
		valid []byte
	}{{tiers[0], seedStore(f, tiers[0])}, {tiers[0], wide}, {tiers[1], seedStore(f, tiers[1])}, {tiers[2], seedStore(f, tiers[2])}} {
		tr, valid := seed.tr, seed.valid
		hs := tr.format.HeaderSize()
		f.Add(valid)
		f.Add(tr.format.Magic[:])
		f.Add(valid[:hs])           // header only, no tiles or index
		f.Add(valid[:len(valid)-7]) // truncated index

		corrupt := func(mutate func(b []byte)) {
			b := bytes.Clone(valid)
			mutate(b)
			f.Add(b)
		}
		le := binary.LittleEndian
		corrupt(func(b []byte) { b[0] = 'X' })                         // bad magic
		corrupt(func(b []byte) { le.PutUint32(b[4:], 99) })            // bad version
		corrupt(func(b []byte) { le.PutUint32(b[8:], 0xFFFE) })        // flags flipped (LDSS: band set without flag)
		corrupt(func(b []byte) { le.PutUint32(b[12:], 7) })            // bad stat
		corrupt(func(b []byte) { le.PutUint64(b[16:], 1<<40) })        // huge SNPs
		corrupt(func(b []byte) { le.PutUint64(b[24:], 0) })            // zero samples
		corrupt(func(b []byte) { le.PutUint32(b[32:], 0) })            // zero tile size
		corrupt(func(b []byte) { le.PutUint32(b[32:], 1<<30) })        // huge tile size
		corrupt(func(b []byte) { le.PutUint64(b[48:], 0) })            // index inside header
		corrupt(func(b []byte) { le.PutUint64(b[48:], 1<<50) })        // index past EOF
		corrupt(func(b []byte) { le.PutUint64(b[56:], 1<<40) })        // absurd tile count
		corrupt(func(b []byte) { b[hs] ^= 0xFF })                      // payload bit flip (LDTS: the allele-count table)
		corrupt(func(b []byte) { le.PutUint64(b[len(b)-24:], 1<<40) }) // entry offset out of range
		corrupt(func(b []byte) { le.PutUint32(b[len(b)-16:], 1<<28) }) // entry length out of range
		corrupt(func(b []byte) { le.PutUint64(b[len(b)-8:], 1<<30) })  // entry aux: LDSS nnz above tile capacity
		if tr.format.Magic == ldssFormat.Magic {
			corrupt(func(b []byte) { le.PutUint64(b[64:], math.Float64bits(math.NaN())) }) // NaN threshold
			corrupt(func(b []byte) { le.PutUint64(b[72:], 7) })                            // band without banded flag
			corrupt(func(b []byte) { le.PutUint64(b[80:], 1<<40) })                        // nnz disagrees with index
			corrupt(func(b []byte) { le.PutUint32(b[36:], 2) })                            // a per-SNP table LDSS has not
		}
	}
	for _, store := range []struct {
		valid []byte
		w     int
	}{{seedStore(f, tiers[0]), 2}, {wide, 4}} {
		for _, b := range hostileCounts(f, store.valid, store.w) {
			f.Add(b)
		}
	}
	// A fully pruned sparse store: every payload empty.
	empty := sparseTier("sparse-empty", 1.5, false, "", "")
	f.Add(seedStore(f, empty))
	f.Add(craftedRowPtrLDSS(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, open := range []func([]byte) (querier, error){openDense, openSparse} {
			if s, err := open(data); err == nil {
				s.Close()
			}
		}
	})
}

// seedWide is the dense fuzz seed at N = 65 536: counts 4 bytes wide.
func seedWide(tb testing.TB) []byte {
	return ramBytes(tb, tiers[0], testMatrix(tb, 20, 65536, 41), fuzzShape)
}

// TestHostileCountStores: every hostile LDTS store is refused with an
// error — at open, or for the count above N, by the first read of its tile
// — never served, at either count width; the valid stores they are made
// from open and read cleanly.
func TestHostileCountStores(t *testing.T) {
	for _, store := range []struct {
		valid []byte
		w     int
	}{{seedStore(t, tiers[0]), 2}, {seedWide(t), 4}} {
		if s, err := ldstore.OpenReader(bytes.NewReader(store.valid), int64(len(store.valid)), ldstore.Options{}); err != nil {
			t.Fatalf("width %d: valid store: %v", store.w, err)
		} else if _, err := s.Region(0, s.SNPs()); err != nil || s.Info().CountBytes != store.w {
			t.Fatalf("width %d: valid store reads %v, %+v", store.w, err, s.Info())
		}
		for name, b := range hostileCounts(t, store.valid, store.w) {
			s, err := ldstore.OpenReader(bytes.NewReader(b), int64(len(b)), ldstore.Options{})
			if err == nil {
				_, err = s.Region(0, s.SNPs())
			}
			if err == nil {
				t.Errorf("width %d: %s: served", store.w, name)
			} else {
				t.Logf("width %d: %s: %v", store.w, name, err)
			}
		}
	}
}

// FuzzManifest feeds arbitrary bytes to the checkpoint-manifest parser
// under every format. The invariant: a corrupt or hostile manifest is
// rejected with an error, never parsed into a state that would resume a
// wrong build — and never a panic. Accepted manifests must satisfy their
// own internal-consistency rules (a valid tile count for the stripe
// count, sane dimensions and codec parameters), which the fuzz body
// re-checks independently.
func FuzzManifest(f *testing.F) {
	for _, valid := range [][]byte{
		[]byte(`{"version":2,"magic":"ldstore-checkpoint","fingerprint":16045690984503111693,"snps":120,"samples":77,"tile_size":16,"stat":1,"stripes_done":3,"data_offset":4096,"tiles_written":18}`),
		[]byte(`{"version":1,"magic":"ldsparse-checkpoint","fingerprint":16045690984503111693,"snps":120,"samples":77,"tile_size":16,"stat":1,"threshold_bits":4587366580439587226,"banded":true,"band":12,"stripes_done":3,"data_offset":4096,"tiles_written":18}`),
	} {
		f.Add(valid)
		replace := func(old, new string) { f.Add(bytes.Replace(valid, []byte(old), []byte(new), 1)) }
		replace(`"version":`, `"version":99`)
		replace(`"tile_size":16`, `"tile_size":0`)
		replace(`"tile_size":16`, `"tile_size":1073741824`)
		replace(`"snps":120`, `"snps":-5`)
		replace(`"snps":120`, `"snps":4611686018427387904`)
		replace(`"stripes_done":3`, `"stripes_done":1000`)
		replace(`"tiles_written":18`, `"tiles_written":2`)
		replace(`"data_offset":4096`, `"data_offset":-1`)
		replace(`"stat":1`, `"stat":9`)
		replace(`"banded":true`, `"banded":false`)
		replace(`"band":12`, `"band":-3`)
		replace(`"threshold_bits":`, `"threshold_bits_x":`)
		f.Add(valid[:len(valid)/2])
	}
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte("not json"))
	f.Add([]byte(`{"version":1,"magic":"ldstore-checkpoint"}`))
	f.Add([]byte(`{"version":1,"magic":"ldsparse-checkpoint"}`))
	for _, tr := range tiers {
		if tr.parentManifest != "" {
			f.Add([]byte(tr.parentManifest))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range []*tilefile.Format{&ldtsFormat, &ldssFormat} {
			m, err := tilefile.ParseManifest(format, data)
			if err != nil {
				continue
			}
			// Whatever parses must be resumable state, not garbage.
			if m.Magic != format.ManifestMagic || m.Version != int(format.Version) {
				t.Fatalf("accepted manifest with identity %q v%d", m.Magic, m.Version)
			}
			if m.SNPs < 0 || m.Samples < 0 || m.TileSize < 1 {
				t.Fatalf("accepted implausible geometry %+v", m)
			}
			if tau := math.Float64frombits(m.ThresholdBits); math.IsNaN(tau) || tau < 0 {
				t.Fatalf("accepted invalid threshold %v", tau)
			}
			if m.Band < 0 || (!m.Banded && m.Band != 0) {
				t.Fatalf("accepted invalid band %+v", m)
			}
			bands := tilefile.BandsFor(m.SNPs, m.TileSize)
			if m.StripesDone < 0 || m.StripesDone > bands {
				t.Fatalf("accepted out-of-range stripe count %+v", m)
			}
			if int64(m.TilesWritten) != tilefile.TilesThrough(bands, m.StripesDone) {
				t.Fatalf("accepted inconsistent tile count %+v", m)
			}
			if m.DataOffset < int64(format.HeaderSize()) {
				t.Fatalf("accepted data offset inside header %+v", m)
			}
		}
	})
}
