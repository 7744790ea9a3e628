package tilefile_test

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
	"ldgemm/internal/ldsparse"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/popsim"
	"ldgemm/internal/tilefile"
)

// One suite per container behaviour, parameterised by codec. Every test
// and fuzz target in this package runs over the same four tiers, so a
// container change is checked against every format it carries.

// shape is the per-test geometry of a build: tile size, and the band
// width the banded tier uses (the others ignore it).
type shape struct{ nt, band int }

// srcOpts are the out-of-core knobs, identical in both codec packages.
type srcOpts struct {
	ioPanel            int
	checkpoint, resume bool
	ctx                context.Context // the build's LD.Blis.Ctx
	threads            int             // the build's LD.Blis.Threads
}

type buildFn func(path string, src bitmat.Source, sh shape, o srcOpts) (tilefile.BuildStats, error)

// querier exercises every query path of an opened store; query errors
// are fine under fuzzing, panics are not.
type querier interface {
	SNPs() int
	Close() error
}

type tier struct {
	name string
	// format restates what the codec package declares: the manifest
	// parser needs it, and the kill-and-resume test proves it is the one
	// the codec writes.
	format tilefile.Format
	// golden is the SHA-256, recorded at the parent commit (PR 11), of the
	// store goldenMatrix builds at goldenShape. Empty for DEFLATE, whose
	// bytes belong to the Go release, not to this repo.
	golden string
	// parentManifest is a checkpoint manifest the parent commit wrote for
	// that same build, killed after its first stripe.
	parentManifest string
	build          buildFn
	buildRAM       func(path string, g *bitmat.Matrix, sh shape) error
	// mismatched are builds differing from build in one codec-specific
	// identity field each; a checkpoint of build must refuse them all.
	mismatched map[string]buildFn
	// open opens a store from raw bytes and runs every query path.
	open func(data []byte) (querier, error)
}

var (
	ldtsFormat = tilefile.Format{Name: "ldstore", Magic: [4]byte{'L', 'D', 'T', 'S'}, ManifestMagic: "ldstore-checkpoint"}
	ldssFormat = tilefile.Format{Name: "ldsparse", Magic: [4]byte{'L', 'D', 'S', 'S'}, ManifestMagic: "ldsparse-checkpoint", ExtSize: 32}
)

func denseBuild(bo func(shape) ldstore.BuildOptions) buildFn {
	return func(path string, src bitmat.Source, sh shape, o srcOpts) (tilefile.BuildStats, error) {
		opt := ldstore.SourceBuildOptions{
			BuildOptions: bo(sh), IOPanelSNPs: o.ioPanel, Checkpoint: o.checkpoint, Resume: o.resume,
		}
		opt.LD.Blis.Ctx, opt.LD.Blis.Threads = o.ctx, o.threads
		return ldstore.BuildFileFromSource(path, src, opt)
	}
}

func sparseBuild(bo func(shape) ldsparse.BuildOptions) buildFn {
	return func(path string, src bitmat.Source, sh shape, o srcOpts) (tilefile.BuildStats, error) {
		opt := ldsparse.SourceBuildOptions{
			BuildOptions: bo(sh), IOPanelSNPs: o.ioPanel, Checkpoint: o.checkpoint, Resume: o.resume,
		}
		opt.LD.Blis.Ctx, opt.LD.Blis.Threads = o.ctx, o.threads
		st, err := ldsparse.BuildFileFromSource(path, src, opt)
		return st.BuildStats, err
	}
}

func openDense(data []byte) (querier, error) {
	s, err := ldstore.OpenReader(bytes.NewReader(data), int64(len(data)), ldstore.Options{CacheTiles: 4})
	if err != nil {
		return nil, err
	}
	_ = s.Info()
	if n := s.SNPs(); n > 0 {
		_, _ = s.At(0, n-1)
		_, _ = s.Region(0, min(n, 12))
		_, _ = s.Top(3)
		_ = s.Band(0, n, 4, func(int, int, float64) bool { return true })
	}
	return s, nil
}

func openSparse(data []byte) (querier, error) {
	s, err := ldsparse.OpenReader(bytes.NewReader(data), int64(len(data)), ldsparse.Options{CacheTiles: 4})
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

func denseTier(name string, compress bool, golden, parentManifest string) tier {
	bo := func(sh shape) ldstore.BuildOptions {
		return ldstore.BuildOptions{TileSize: sh.nt, Compress: compress}
	}
	return tier{
		name: name, format: ldtsFormat, golden: golden, parentManifest: parentManifest,
		build: denseBuild(bo),
		buildRAM: func(path string, g *bitmat.Matrix, sh shape) error {
			_, err := ldstore.BuildFile(path, g, bo(sh))
			return err
		},
		mismatched: map[string]buildFn{
			"different compression": denseBuild(func(sh shape) ldstore.BuildOptions {
				return ldstore.BuildOptions{TileSize: sh.nt, Compress: !compress}
			}),
			"different stat": denseBuild(func(sh shape) ldstore.BuildOptions {
				return ldstore.BuildOptions{TileSize: sh.nt, Compress: compress, Stat: ldstore.StatD}
			}),
		},
		open: openDense,
	}
}

func sparseTier(name string, tau float64, banded bool, golden, parentManifest string) tier {
	with := func(edit func(*ldsparse.BuildOptions)) func(shape) ldsparse.BuildOptions {
		return func(sh shape) ldsparse.BuildOptions {
			bo := ldsparse.BuildOptions{TileSize: sh.nt, Threshold: tau, Banded: banded}
			if banded {
				bo.Band = sh.band
			}
			edit(&bo)
			return bo
		}
	}
	bo := with(func(*ldsparse.BuildOptions) {})
	return tier{
		name: name, format: ldssFormat, golden: golden, parentManifest: parentManifest,
		build: sparseBuild(bo),
		buildRAM: func(path string, g *bitmat.Matrix, sh shape) error {
			_, err := ldsparse.BuildFile(path, g, bo(sh))
			return err
		},
		mismatched: map[string]buildFn{
			"different threshold": sparseBuild(with(func(bo *ldsparse.BuildOptions) { bo.Threshold = 2 * tau })),
			"different stat":      sparseBuild(with(func(bo *ldsparse.BuildOptions) { bo.Stat = ldsparse.StatD })),
			"banded vs not": sparseBuild(with(func(bo *ldsparse.BuildOptions) {
				if bo.Banded = !bo.Banded; bo.Banded {
					bo.Band = 10
				} else {
					bo.Band = 0
				}
			})),
			"different band": sparseBuild(with(func(bo *ldsparse.BuildOptions) {
				if !bo.Banded {
					bo.Banded = true
				}
				bo.Band += 3
			})),
		},
		open: openSparse,
	}
}

// The golden build: digests and manifests below were produced by the
// parent commit from popsim.Mosaic(53, 40, Seed 7) at tile size 16, band
// 20, and must never change — they are the on-disk format.
var goldenShape = shape{nt: 16, band: 20}

func goldenMatrix(tb testing.TB) *bitmat.Matrix { return testMatrix(tb, 53, 40, 7) }

var tiers = []tier{
	denseTier("dense", false,
		"9bb0223d31acef5bf87ff7e8cad8ac4b4f9751649873ffcfa587afcc85b0c14f",
		`{"version":1,"magic":"ldstore-checkpoint","fingerprint":8134653551277746360,"snps":53,"samples":40,"tile_size":16,"stat":1,"compress":false,"stripes_done":1,"data_offset":6848,"tiles_written":4}`),
	denseTier("dense+deflate", true, "", ""),
	sparseTier("sparse", 0.05, false,
		"f2a8c3f4af2144b0f21084b3d2c34292298cc80b6c3969fba25a2f9631735232", ""),
	sparseTier("sparse-banded", 0.02, true,
		"c49a665a2b9e37861f5aa3df65343551c4557c4dcedaeafff99f85f86c5056cb",
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

// ldbmSource writes m as a .ldbm container and opens it in the requested
// mode, registering cleanup.
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
func killedBuild(t *testing.T, tr tier, g *bitmat.Matrix, sh shape, fetches int) (string, bitmat.Source, *tilefile.PartialError) {
	t.Helper()
	src := ldbmSource(t, g, false)
	flaky := &flakySource{Source: src}
	flaky.remaining.Store(int64(fetches))
	path := filepath.Join(t.TempDir(), "killed.store")
	_, err := tr.build(path, flaky, sh, srcOpts{ioPanel: 16, checkpoint: true})
	var pe *tilefile.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("%s: killed build returned %v, want *PartialError", tr.name, err)
	}
	return path, src, pe
}

// craftedRowPtrLDSS is a sparse store whose last tile's row pointers read
// [0, 2^20, nnz, …, nnz] over ascending in-range columns, with length,
// entry count, CRC and header total all consistent: every open-time check
// passes, and a decoder that walks row 0's columns before validating the
// whole pointer array indexes cols far out of range.
func craftedRowPtrLDSS(tb testing.TB) []byte {
	tb.Helper()
	const nt = 8
	path := filepath.Join(tb.TempDir(), "crafted.ldss")
	if _, err := ldsparse.BuildFile(path, testMatrix(tb, 2*nt, 16, 41), ldsparse.BuildOptions{TileSize: nt}); err != nil {
		tb.Fatal(err)
	}
	b := mustRead(tb, path)
	le := binary.LittleEndian
	indexOff := le.Uint64(b[48:])
	last := b[len(b)-tilefile.IndexEntrySize:]
	oldNNZ := le.Uint64(last[16:])

	payload := make([]byte, (nt+1)*4+nt*10) // rowPtr, then nt cols, then nt vals
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
	le.PutUint64(out[80:], le.Uint64(b[80:])-oldNNZ+nt)
	last = out[len(out)-tilefile.IndexEntrySize:]
	le.PutUint32(last[8:], uint32(len(payload)))
	le.PutUint32(last[12:], crc32.ChecksumIEEE(payload))
	le.PutUint64(last[16:], nt)
	return out
}
