package ldstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/popsim"
)

// One suite per container behaviour, parameterised by store kind. Every
// test and fuzz target of the suite (build_test.go, pipeline_test.go,
// fuzz_test.go) runs over the same three tiers, so a container change is
// checked against every format it carries.

// shape is the per-test geometry of a build: tile size, and the band
// width the banded tier uses (the others ignore it).
type shape struct{ nt, band int }

// srcOpts are the out-of-core knobs, identical for both kinds of store.
type srcOpts struct {
	ioPanel            int
	checkpoint, resume bool
	ctx                context.Context // the build's LD.Blis.Ctx
	threads            int             // the build's LD.Blis.Threads
}

type buildFn func(path string, src bitmat.Source, sh shape, o srcOpts) (BuildStats, error)

// querier exercises every query path of an opened store; query errors
// are fine under fuzzing, panics are not.
type querier interface {
	SNPs() int
	Close() error
}

type tier struct {
	name string
	// format is the store kind's: the manifest parser needs it.
	format *fileFormat
	// golden is the SHA-256 of the store goldenMatrix builds at
	// goldenShape, recorded when its format version was introduced.
	golden string
	// parentManifest is a checkpoint manifest an earlier commit wrote for
	// that same build, killed after its first stripe; oldManifest says it
	// is of an earlier format version, which a resume must refuse.
	parentManifest string
	oldManifest    bool
	build          buildFn
	buildRAM       func(path string, g *bitmat.Matrix, sh shape) error
	// mismatched are builds differing from build in one codec-specific
	// identity field each; a checkpoint of build must refuse them all. The
	// dense codec has none: a store holds the counts, whatever is asked.
	mismatched map[string]buildFn
	// open opens a store from raw bytes and runs every query path.
	open func(data []byte) (querier, error)
}

func denseBuild(bo func(shape) BuildOptions) buildFn {
	return func(path string, src bitmat.Source, sh shape, o srcOpts) (BuildStats, error) {
		opt := SourceBuildOptions{
			BuildOptions: bo(sh), IOPanelSNPs: o.ioPanel, Checkpoint: o.checkpoint, Resume: o.resume,
		}
		opt.LD.Blis.Ctx, opt.LD.Blis.Threads = o.ctx, o.threads
		return BuildFileFromSource(path, src, opt)
	}
}

// sparseBuild builds pruned stores, at τ = 0 with no band too.
func sparseBuild(bo func(shape) BuildOptions) buildFn {
	return func(path string, src bitmat.Source, sh shape, o srcOpts) (BuildStats, error) {
		opt := SourceBuildOptions{
			BuildOptions: bo(sh), IOPanelSNPs: o.ioPanel, Checkpoint: o.checkpoint, Resume: o.resume,
		}
		opt.LD.Blis.Ctx, opt.LD.Blis.Threads = o.ctx, o.threads
		return BuildPrunedFromSource(path, src, opt)
	}
}

func openDense(data []byte) (querier, error) {
	s, err := OpenReader(bytes.NewReader(data), int64(len(data)), Options{CacheTiles: 4})
	if err != nil {
		return nil, err
	}
	_ = s.Info()
	if n := s.SNPs(); n > 0 {
		_, _ = s.At(0, n-1)
		_, _ = s.Region(0, min(n, 12))
		_, _ = s.Top(3)
	}
	return s, nil
}

func openSparse(data []byte) (querier, error) {
	s, err := OpenReader(bytes.NewReader(data), int64(len(data)), Options{CacheTiles: 4})
	if err != nil {
		return nil, err
	}
	_ = s.Info()
	if n := s.SNPs(); n > 0 {
		_, _ = s.At(0, n-1)
		_, _, _ = s.Lookup(n/2, n/2)
		x := make([]float64, n)
		for i := range x {
			x[i] = 1
		}
		_, _ = s.MatVec(x)
		_, _ = s.Score(x)
	}
	return s, nil
}

func denseTier(name string, golden, parentManifest string) tier {
	bo := func(sh shape) BuildOptions {
		return BuildOptions{TileSize: sh.nt}
	}
	return tier{
		name: name, format: &ldtsFormat, golden: golden, parentManifest: parentManifest, oldManifest: true,
		build: denseBuild(bo),
		buildRAM: func(path string, g *bitmat.Matrix, sh shape) error {
			_, err := BuildFile(path, g, bo(sh))
			return err
		},
		open: openDense,
	}
}

func sparseTier(name string, tau float64, banded bool, golden, parentManifest string) tier {
	with := func(edit func(*BuildOptions)) func(shape) BuildOptions {
		return func(sh shape) BuildOptions {
			bo := BuildOptions{TileSize: sh.nt, Threshold: tau, Banded: banded}
			if banded {
				bo.Band = sh.band
			}
			edit(&bo)
			return bo
		}
	}
	bo := with(func(*BuildOptions) {})
	return tier{
		name: name, format: &ldssFormat, golden: golden, parentManifest: parentManifest, oldManifest: parentManifest != "",
		build: sparseBuild(bo),
		buildRAM: func(path string, g *bitmat.Matrix, sh shape) error {
			_, err := BuildPrunedFromSource(path, bitmat.NewMemSource(g), SourceBuildOptions{BuildOptions: bo(sh)})
			return err
		},
		mismatched: map[string]buildFn{
			"different threshold": sparseBuild(with(func(bo *BuildOptions) { bo.Threshold = 2 * tau })),
			"different stat":      sparseBuild(with(func(bo *BuildOptions) { bo.Stat = StatD })),
			"banded vs not": sparseBuild(with(func(bo *BuildOptions) {
				if bo.Banded = !bo.Banded; bo.Banded {
					bo.Band = 10
				} else {
					bo.Band = 0
				}
			})),
			"different band": sparseBuild(with(func(bo *BuildOptions) {
				if !bo.Banded {
					bo.Banded = true
				}
				bo.Band += 3
			})),
		},
		open: openSparse,
	}
}

// The golden build: digests and manifests below were produced from
// popsim.Mosaic(53, 40, Seed 7) at tile size 16, band 20, and must never
// change — they are the on-disk format. The dense digest dates from LDTS
// version 2 and the pruned ones from LDSS version 2, whose stores hold
// counts; both manifests from version 1, whose stores held f64 values,
// and which a resume refuses.
var goldenShape = shape{nt: 16, band: 20}

func goldenMatrix(tb testing.TB) *bitmat.Matrix { return testMatrix(tb, 53, 40, 7) }

var tiers = []tier{
	denseTier("dense",
		"21ea6f7cb54c64715760295b9092676ed22c8c1578bb979a47825b37b2bd25f2",
		`{"version":1,"magic":"ldstore-checkpoint","fingerprint":8134653551277746360,"snps":53,"samples":40,"tile_size":16,"stat":1,"compress":false,"stripes_done":1,"data_offset":6848,"tiles_written":4}`),
	sparseTier("sparse", 0.05, false,
		"adfefa7139124db6f9df48f31f2e713e26b8a041e16c1352b2594d5c3866d46d", ""),
	sparseTier("sparse-banded", 0.02, true,
		"23c8d32fdded949f407fb89a9bbdc88b18ce7b892d4cffff88adff34022bcb0d",
		`{"version":1,"magic":"ldsparse-checkpoint","fingerprint":8134653551277746360,"snps":53,"samples":40,"tile_size":16,"stat":1,"threshold_bits":4581421828931458171,"banded":true,"band":20,"stripes_done":1,"data_offset":1960,"tiles_written":4}`),
}

func testMatrix(tb testing.TB, snps, samples int, seed int64) *bitmat.Matrix {
	tb.Helper()
	g, err := popsim.Mosaic(snps, samples, popsim.MosaicConfig{Seed: seed})
	if err != nil {
		tb.Fatalf("popsim.Mosaic: %v", err)
	}
	return g
}

// ldbmSource writes m as a .ldbm container and opens it, registering
// cleanup. mapped is handed to bitmat.OpenFile, which ignores it.
func ldbmSource(tb testing.TB, m *bitmat.Matrix, mapped bool) *bitmat.File {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "g.ldbm")
	if err := bitmat.WriteFile(path, m); err != nil {
		tb.Fatal(err)
	}
	f, err := bitmat.OpenFile(path, mapped)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { f.Close() })
	return f
}

func mustRead(tb testing.TB, path string) []byte {
	tb.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// ramBytes returns the bytes of the tier's in-RAM build of g.
func ramBytes(tb testing.TB, tr tier, g *bitmat.Matrix, sh shape) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "ram.store")
	if err := tr.buildRAM(path, g, sh); err != nil {
		tb.Fatalf("%s: in-RAM build: %v", tr.name, err)
	}
	return mustRead(tb, path)
}

// flakySource injects an I/O failure after a fixed number of panel
// fetches — the tests' stand-in for a mid-build kill.
type flakySource struct {
	bitmat.Source
	remaining atomic.Int64
}

func (s *flakySource) Panel(lo, hi int, buf *bitmat.Matrix) (*bitmat.Matrix, error) {
	if s.remaining.Add(-1) < 0 {
		return nil, errors.New("injected I/O failure")
	}
	return s.Source.Panel(lo, hi, buf)
}

// killedBuild runs the tier's checkpointed build of g from a windowed
// .ldbm that fails after `fetches` panel reads, and returns the store
// path, the healthy source, and the partial-progress error.
func killedBuild(t *testing.T, tr tier, g *bitmat.Matrix, sh shape, fetches int) (string, bitmat.Source, *PartialError) {
	t.Helper()
	src := ldbmSource(t, g, false)
	flaky := &flakySource{Source: src}
	flaky.remaining.Store(int64(fetches))
	path := filepath.Join(t.TempDir(), "killed.store")
	_, err := tr.build(path, flaky, sh, srcOpts{ioPanel: 16, checkpoint: true})
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("%s: killed build returned %v, want *PartialError", tr.name, err)
	}
	return path, src, pe
}

// craftedRowPtrLDSS is a pruned store whose last tile's row pointers read
// [0, 2^20, nnz, …, nnz] over ascending in-range columns, with length,
// entry count, CRC and header total all consistent: every open-time check
// passes, and a decoder that walks row 0's columns before validating the
// whole pointer array indexes cols far out of range.
func craftedRowPtrLDSS(tb testing.TB) []byte {
	tb.Helper()
	const nt = 8
	path := filepath.Join(tb.TempDir(), "crafted.ldss")
	src := bitmat.NewMemSource(testMatrix(tb, 2*nt, 16, 41))
	if _, err := BuildPrunedFromSource(path, src, SourceBuildOptions{BuildOptions: BuildOptions{TileSize: nt}}); err != nil {
		tb.Fatal(err)
	}
	b := mustRead(tb, path)
	le := binary.LittleEndian
	indexOff := le.Uint64(b[48:])
	last := b[len(b)-indexEntrySize:]
	oldNNZ := le.Uint64(last[16:])

	payload := make([]byte, (nt+1)*4+nt*4) // rowPtr, then nt cols, then nt 2-byte counts
	le.PutUint32(payload[4:], 1<<20)
	for r := 2; r <= nt; r++ {
		le.PutUint32(payload[r*4:], nt)
	}
	for k := 0; k < nt; k++ {
		le.PutUint16(payload[(nt+1)*4+k*2:], uint16(k))
	}

	out := append([]byte{}, b[:le.Uint64(last[0:])]...)
	out = append(out, payload...)
	out = append(out, b[indexOff:]...)
	le.PutUint64(out[48:], uint64(len(out))-uint64(len(b))+indexOff)
	le.PutUint64(out[88:], le.Uint64(b[88:])-oldNNZ+nt)
	last = out[len(out)-indexEntrySize:]
	le.PutUint32(last[8:], uint32(len(payload)))
	le.PutUint32(last[12:], crc32.ChecksumIEEE(payload))
	le.PutUint64(last[16:], nt)
	return out
}
