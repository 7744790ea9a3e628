package ldstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/core"
	"ldgemm/internal/tilefile"
)

// BuildOptions configures a store build.
type BuildOptions struct {
	// TileSize is NT, the side of each square tile (default 256): larger
	// tiles amortize index and seek overhead, smaller ones sharpen the
	// LRU's working set. NT²×8 bytes must not exceed tilefile.MaxTileBytes.
	TileSize int
	// Stat, Threshold, Banded and Band are a pruned store's predicate: a
	// cell is kept iff its Stat (default r²) has |v| ≥ Threshold and, when
	// Banded, |i−j| ≤ Band. The build's one scan selects inside its fused
	// epilogue and skips the GEMM work beyond the band outright; Band = 0
	// is the diagonal alone. Without a threshold or a band the store is
	// complete: it holds every count and serves every measure, so a Stat
	// other than r² is refused there.
	Stat      Stat
	Threshold float64
	Banded    bool
	Band      int
	// LD carries kernel blocking, threading, and context options for the
	// blocked pass that produces the counts.
	LD core.Options
}

// SourceBuildOptions configures an out-of-core store build.
type SourceBuildOptions struct {
	BuildOptions
	// IOPanelSNPs is the column-panel width of the out-of-core scheduler's
	// B-side fetches (default 1024 SNPs); the knob that trades resident
	// panel memory against per-fetch I/O efficiency for file sources. A
	// banded schedule caps every stripe's panels at the band edge.
	IOPanelSNPs int
	// Checkpoint maintains a <store>.ckpt manifest and <store>.idx index
	// sidecar, committed at most once a second and never past durable
	// data, so a killed build can restart where it left off instead of from
	// scratch (see tilefile.BuildFile). Resume restarts from an existing
	// manifest (implies Checkpoint): without one the build starts fresh,
	// and one that does not match this dataset and these options — the
	// predicate included — is refused.
	Checkpoint bool
	Resume     bool
}

// BuildStats reports what a build wrote and the memory bound it ran
// under, and NNZ the entries a pruned store kept (0 for a complete one).
type BuildStats struct {
	tilefile.BuildStats
	NNZ int64
}

// PartialError reports a build that failed after durably flushing some
// stripes; see tilefile.PartialError.
type PartialError = tilefile.PartialError

// spec validates the options and describes the build of a store of the
// given kind over samples sequences to the container's driver: counts as
// wide as N calls for, in tiles and in the allele-count table.
func (o SourceBuildOptions) spec(samples int, pruned bool) (tilefile.Spec, error) {
	switch {
	case math.IsNaN(o.Threshold) || o.Threshold < 0:
		return tilefile.Spec{}, fmt.Errorf("ldstore: invalid threshold %v", o.Threshold)
	case o.Banded && o.Band < 0:
		return tilefile.Spec{}, fmt.Errorf("ldstore: invalid band width %d", o.Band)
	case !o.Banded && o.Band != 0:
		return tilefile.Spec{}, fmt.Errorf("ldstore: Band=%d set without Banded", o.Band)
	case !pruned && o.Stat != 0 && o.Stat != StatR2:
		return tilefile.Spec{}, fmt.Errorf("ldstore: a complete store serves every measure; Stat %v selects a pruned store's", o.Stat)
	}
	t := table{width: core.CountBytes(samples)}
	spec := tilefile.Spec{
		Format: &format, TileSize: o.TileSize, Stat: StatR2,
		Ext: make([]byte, format.ExtSize), TableWidth: t.width,
		Encoder: &encoder{table: t},
		LD:      o.LD, IOPanelSNPs: o.IOPanelSNPs,
		Checkpoint: o.Checkpoint, Resume: o.Resume,
	}
	if !pruned {
		return spec, nil
	}
	spec.Format, spec.Stat, spec.Ext = &prunedFormat, o.Stat, make([]byte, prunedFormat.ExtSize)
	spec.Params = tilefile.Params{ThresholdBits: math.Float64bits(o.Threshold), Banded: o.Banded, Band: o.Band}
	spec.Encoder = &keptEncoder{table: t, tau: o.Threshold}
	binary.LittleEndian.PutUint64(spec.Ext[extThreshold:], spec.Params.ThresholdBits)
	if o.Banded {
		spec.Flags = flagBanded
		binary.LittleEndian.PutUint64(spec.Ext[extBand:], uint64(o.Band))
	}
	return spec, nil
}

// BuildFile computes the joint counts of every SNP pair of g (only the
// |i−j| ≤ Band pairs of a banded build) with the blocked driver and writes
// the store to path, removing the partial file on failure: pruned when opt
// has a threshold or a band, complete otherwise. See tilefile.BuildFile
// for the scan and its memory bound.
func BuildFile(path string, g *bitmat.Matrix, opt BuildOptions) (BuildStats, error) {
	return BuildFileFromSource(path, bitmat.NewMemSource(g), SourceBuildOptions{BuildOptions: opt})
}

// BuildFileFromSource builds the store at path from any bitmat.Source —
// a resident matrix, or an mmap'd / windowed .ldbm container that never
// fits in memory — with byte-identical output either way; see
// tilefile.BuildFile for checkpointing, resume, and failure behaviour.
func BuildFileFromSource(path string, src bitmat.Source, opt SourceBuildOptions) (BuildStats, error) {
	return build(path, src, opt, opt.Threshold != 0 || opt.Banded)
}

// BuildPrunedFromSource is BuildFileFromSource for a pruned store whatever
// the predicate: at τ = 0 with no band it keeps every cell of the upper
// triangle, as CSR, for the sparse operators.
func BuildPrunedFromSource(path string, src bitmat.Source, opt SourceBuildOptions) (BuildStats, error) {
	return build(path, src, opt, true)
}

func build(path string, src bitmat.Source, opt SourceBuildOptions, pruned bool) (BuildStats, error) {
	spec, err := opt.spec(src.NumSamples(), pruned)
	if err != nil {
		return BuildStats{}, err
	}
	st, err := tilefile.BuildFile(path, src, spec)
	out := BuildStats{BuildStats: st}
	if err == nil && pruned {
		// FinishHeader stamped the total into the spec's extension.
		out.NNZ = int64(binary.LittleEndian.Uint64(spec.Ext[extNNZ:]))
	}
	return out, err
}

// table is both encoders' allele-count table: kept as the scan hands it
// over, written with its checksum once every tile is indexed.
type table struct {
	width   int // count bytes
	alleles []uint32
}

func (t *table) Alleles(a []uint32) { t.alleles = a }

func (t *table) finish(h *tilefile.Header) {
	for i, a := range t.alleles {
		t.put(h.Table, i, a)
	}
	binary.LittleEndian.PutUint32(h.Ext[extTableCRC:], crc32.ChecksumIEEE(h.Table))
}

// put writes count c as the k-th little-endian count of b.
func (t *table) put(b []byte, k int, c uint32) {
	if t.width == 2 {
		binary.LittleEndian.PutUint16(b[2*k:], uint16(c))
	} else {
		binary.LittleEndian.PutUint32(b[4*k:], c)
	}
}

// encoder is the complete store's write side, with the scratch a
// big-endian host reuses across tiles.
type encoder struct {
	table
	raw []byte
}

// EncodeTile serializes tile t from the stripe's counts — on a
// little-endian host the tile's own bytes, as the stripe holds each tile as
// its payload's rows (core.CountStripe.Tile) — with the tile's maximum r²
// the scan folded as its auxiliary word. A diagonal tile's upper triangle
// is first mirrored into its lower one (H is symmetric).
func (enc *encoder) EncodeTile(s *tilefile.Stripe, t tilefile.Tile) ([]byte, uint64, error) {
	c := &s.Counts
	k := t.TJ - t.TI
	off, _ := c.Tile(k)
	var payload []byte
	if enc.width == 2 {
		payload = tileBytes(&enc.raw, c.C16[off:][:t.Rows*t.Cols], t)
	} else {
		payload = tileBytes(&enc.raw, c.C32[off:][:t.Rows*t.Cols], t)
	}
	return payload, math.Float64bits(c.TileMax[k]), nil
}

// tileBytes returns tile t's counts, rows × cols of them row after row, as
// little-endian bytes: the tile's own memory on a little-endian host, else
// written into raw.
func tileBytes[T uint16 | uint32](raw *[]byte, tile []T, t tilefile.Tile) []byte {
	if t.Diagonal() {
		for r := 1; r < t.Rows; r++ {
			for c := 0; c < r; c++ {
				tile[r*t.Cols+c] = tile[c*t.Cols+r]
			}
		}
	}
	size := int(unsafe.Sizeof(T(0)))
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(tile))), len(tile)*size)
	}
	if cap(*raw) < len(tile)*size {
		*raw = make([]byte, len(tile)*size)
	}
	out := (*raw)[:len(tile)*size]
	for c, v := range tile {
		for b := range size {
			out[c*size+b] = byte(v >> (8 * b))
		}
	}
	return out
}

// hostLittleEndian: a count in memory is already its LDTS bytes, so the
// encoder hands over a tile's memory as its payload; a big-endian host
// writes it byte by byte.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// FinishHeader writes the allele-count table and its checksum.
func (enc *encoder) FinishHeader(h *tilefile.Header, _ []tilefile.Entry) { enc.finish(h) }

// keptEncoder is the pruned store's write side, a tilefile.KeptEncoder: the
// build's scan hands it only the counts of the cells with |v| ≥ τ, each
// stripe in row-CSR.
type keptEncoder struct {
	table
	tau float64
	// cur is each stripe row's first survivor no tile has taken yet; left
	// counts the survivors past all of them.
	cur  []int
	left int
	raw  []byte
}

// Threshold is τ: the scan keeps a cell iff |v| ≥ τ.
func (enc *keptEncoder) Threshold() float64 { return enc.tau }

// EncodeTile cuts tile t's survivors from the kept stripe as a tile-local
// CSR block and returns it with the entry count. Each stripe row holds its
// survivors in ascending columns from its diagonal, so the diagonal tile,
// the stripe's first, keeps its upper triangle, and each tile after it
// takes the survivors below its end column from every row's cursor. A
// tile with none — every far-off-band tile — costs only its index entry.
func (enc *keptEncoder) EncodeTile(s *tilefile.Stripe, t tilefile.Tile) ([]byte, uint64, error) {
	k := &s.Kept
	if t.Diagonal() {
		enc.cur = append(enc.cur[:0], k.RowPtr[:t.Rows]...)
		enc.left = k.RowPtr[t.Rows]
	}
	if enc.left == 0 {
		return nil, 0, nil
	}
	end := t.Col0 + t.Cols
	nnz := 0
	for r, c := range enc.cur[:t.Rows] {
		stop := k.RowPtr[r+1]
		for c < stop && int(k.Cols[c]) < end {
			c++
		}
		nnz += c - enc.cur[r]
	}
	if nnz == 0 {
		return nil, 0, nil
	}
	enc.left -= nnz
	length := int(csrBytes(t.Rows, int64(nnz), uint32(enc.width)))
	if cap(enc.raw) < length {
		enc.raw = make([]byte, length)
	}
	raw := enc.raw[:length]
	cols := raw[(t.Rows+1)*4:]
	counts := cols[nnz*2:]
	at := 0
	binary.LittleEndian.PutUint32(raw, 0)
	for r, c := range enc.cur[:t.Rows] {
		stop := k.RowPtr[r+1]
		for ; c < stop && int(k.Cols[c]) < end; c++ {
			binary.LittleEndian.PutUint16(cols[at*2:], uint16(int(k.Cols[c])-t.Col0))
			enc.put(counts, at, k.Counts[c])
			at++
		}
		enc.cur[r] = c
		binary.LittleEndian.PutUint32(raw[(r+1)*4:], uint32(at))
	}
	return raw, uint64(nnz), nil
}

// FinishHeader writes the allele-count table and stamps the store's total
// entry count, summed from the index — on a resumed build the reloaded
// entries carry the earlier stripes' share.
func (enc *keptEncoder) FinishHeader(h *tilefile.Header, index []tilefile.Entry) {
	enc.finish(h)
	var nnz uint64
	for _, e := range index {
		nnz += e.Aux
	}
	binary.LittleEndian.PutUint64(h.Ext[extNNZ:], nnz)
}
