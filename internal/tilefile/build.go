package tilefile

import (
	"bufio"
	"context"
	"errors"
	"hash/crc32"
	"io"
	"os"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/core"
)

// Stripe is one tile row of statistic values as the scan delivered it:
// the encoder's input. Row r (global SNP I0+r) occupies
// Vals[r*Width : (r+1)*Width] for columns [I0, N); only the upper
// triangle is delivered, so the cells left of a row's own diagonal are
// unset. RowEnd[r] is the exclusive global end column the scan delivered
// for that row — the band edge in a banded build, N otherwise; cells past
// it are stale values of an earlier stripe.
type Stripe struct {
	N, I0, Rows, Width int
	Vals               []float64
	RowEnd             []int
}

// Encoder is the write side of a tile format. The boundary is per tile:
// the driver hands over the whole stripe and a tile's coordinates, and
// gets one payload back.
type Encoder interface {
	// EncodeTile serializes tile t of stripe s and returns its payload
	// and index auxiliary word. The payload lives in scratch the encoder
	// reuses; the driver consumes it before the next call. A diagonal
	// tile is always the first tile encoded from its stripe, and the
	// encoder may complete the stripe in place for it.
	EncodeTile(s *Stripe, t Tile) (payload []byte, aux uint64, err error)
	// FinishHeader patches the header extension once every tile is
	// indexed, for formats whose header carries a whole-store total.
	FinishHeader(h *Header, index []Entry)
}

// Spec is one build as a codec package hands it to the driver.
type Spec struct {
	Format *Format
	// TileSize is NT (0 selects the default of 256), Stat the statistic
	// to materialize (0 selects r²).
	TileSize int
	Stat     Stat
	// Flags and Ext are the codec's header flags and initial extension.
	Flags uint32
	Ext   []byte
	// Params is the codec's share of the checkpoint identity; its Banded
	// and Band also restrict the scan.
	Params  Params
	Encoder Encoder
	// LD carries kernel blocking, threading, and context options for the
	// blocked pass that produces the values.
	LD core.Options
	// IOPanelSNPs is the column-panel width of the out-of-core
	// scheduler's B-side fetches (0 selects core's default).
	IOPanelSNPs int
	// Checkpoint and Resume apply to BuildFile only; Resume implies
	// Checkpoint.
	Checkpoint bool
	Resume     bool
}

// BuildStats reports what a build wrote.
type BuildStats struct {
	// Tiles is the number of tiles indexed; TileBytes their total payload
	// size on disk; FileBytes the whole container including header and
	// index.
	Tiles     int
	TileBytes int64
	FileBytes int64
	// PeakResultBytes is the build's result-storage high-water mark: one
	// NT-row float64 stripe buffer plus the scan's fused float64 stripe —
	// O(TileSize × SNPs), never the n² result.
	PeakResultBytes int64
	// StartStripe is the tile row the build began at: 0 for a fresh
	// build, the checkpoint's stripe count for a resumed one.
	StartStripe int
}

// builder is the single build driver: core.StreamSource → stripe buffer →
// per-tile encode → index → header back-patch.
type builder struct {
	spec   *Spec
	src    bitmat.Source
	n, nt  int
	bands  int
	hdr    Header
	id     identity
	stripe Stripe

	w      io.WriteSeeker
	bw     *bufio.Writer
	offset int64
	index  []Entry
	next   int // expected next global row

	// File builds only.
	file        *os.File
	ck          *checkpoint // nil unless checkpointing
	startStripe int
	stripesDone int
}

func newBuilder(src bitmat.Source, spec *Spec) (*builder, error) {
	f := spec.Format
	if spec.TileSize == 0 {
		spec.TileSize = 256
	}
	if spec.Stat == 0 {
		spec.Stat = StatR2
	}
	if err := f.checkTileSize(int64(spec.TileSize)); err != nil {
		return nil, err
	}
	if !spec.Stat.Valid() {
		return nil, f.errorf("invalid statistic kind %d", uint32(spec.Stat))
	}
	n, nt := src.NumSNPs(), spec.TileSize
	t := bandsFor(n, nt)
	b := &builder{spec: spec, src: src, n: n, nt: nt, bands: t,
		hdr: Header{
			Flags:       spec.Flags,
			Stat:        spec.Stat,
			SNPs:        uint64(n),
			Samples:     uint64(src.NumSamples()),
			TileSize:    uint32(nt),
			Fingerprint: src.Fingerprint(),
			TileCount:   uint64(tilesThrough(t, t)),
			Ext:         spec.Ext,
		},
		offset: int64(f.HeaderSize()),
	}
	b.index = make([]Entry, 0, b.hdr.TileCount)
	b.id = identity{
		Fingerprint: b.hdr.Fingerprint, SNPs: n, Samples: src.NumSamples(),
		TileSize: nt, Stat: uint32(spec.Stat), Params: spec.Params,
	}
	return b, nil
}

// Build computes the statistic for every SNP pair of src (or only the
// |i−j| ≤ Band pairs of a banded spec) with the blocked driver and writes
// the tile container to w. It rides core.StreamSource's triangular scan
// with StripeRows = TileSize, so each tile row is produced from one stripe
// and result memory stays O(TileSize × SNPs) no matter how large the full
// n² matrix would be; a resident bitmat.MemSource runs core.Stream's
// in-RAM scan, any other source the double-buffered panel schedule. The
// Exact epilogue is forced so stored values are bit-identical to the dense
// core.Matrix path a serverless request would compute.
func Build(w io.WriteSeeker, src bitmat.Source, spec Spec) (BuildStats, error) {
	b, err := newBuilder(src, &spec)
	if err != nil {
		return BuildStats{}, err
	}
	b.setOutput(w)
	if _, err := b.bw.Write(b.hdr.encode(spec.Format)); err != nil {
		return BuildStats{}, err
	}
	return b.run()
}

// BuildFile is Build into the file at path. With spec.Checkpoint it
// maintains the manifest and index sidecar, durably advanced after every
// flushed stripe; with spec.Resume it restarts from an existing manifest
// (starting fresh without one, refusing one written by a different
// dataset or options), re-computing only the stripes past it and
// converging to the bytes of an uninterrupted build.
//
// On failure after at least one stripe has been flushed, the returned
// error is a *PartialError carrying the progress; a checkpointed build
// leaves the partial store and its sidecars in place for a later Resume,
// any other removes the partial file.
func BuildFile(path string, src bitmat.Source, spec Spec) (BuildStats, error) {
	b, err := newBuilder(src, &spec)
	if err != nil {
		return BuildStats{}, err
	}
	f := spec.Format
	useCkpt := spec.Checkpoint || spec.Resume
	if spec.Resume {
		raw, rerr := os.ReadFile(CheckpointPath(path))
		switch {
		case rerr == nil:
			m, err := parseManifest(f, raw)
			if err != nil {
				return BuildStats{}, err
			}
			if m.identity != b.id {
				return BuildStats{}, f.errorf("checkpoint at %s was written by a different build (dataset or options changed); remove it to start over", CheckpointPath(path))
			}
			var loaded []Entry
			if b.file, b.ck, loaded, err = resume(f, path, m); err != nil {
				return BuildStats{}, err
			}
			b.index = append(b.index, loaded...)
			b.startStripe, b.stripesDone, b.offset = m.StripesDone, m.StripesDone, m.DataOffset
			b.next = m.StripesDone * b.nt
			blis.NoteResume()
		case errors.Is(rerr, os.ErrNotExist):
			// No checkpoint yet: fall through to a fresh (checkpointed) build.
		default:
			return BuildStats{}, rerr
		}
	}
	if b.file == nil {
		if b.file, err = os.Create(path); err != nil {
			return BuildStats{}, err
		}
		if _, err = b.file.Write(b.hdr.encode(f)); err == nil && useCkpt {
			b.ck = &checkpoint{path: path, id: b.id}
			b.ck.sidecar, err = os.Create(SidecarPath(path))
		}
		if err != nil {
			b.file.Close()
			os.Remove(path)
			return BuildStats{}, err
		}
	}
	b.setOutput(b.file)

	st, err := b.run()
	if err == nil {
		err = b.file.Sync()
	}
	if cerr := b.file.Close(); err == nil {
		err = cerr
	}
	if b.ck != nil {
		b.ck.sidecar.Close()
	}
	if err != nil {
		if b.stripesDone > b.startStripe || b.startStripe > 0 {
			err = &PartialError{FlushedStripes: b.stripesDone, TotalStripes: b.bands, Err: err}
		}
		if !useCkpt {
			os.Remove(path)
		}
		return BuildStats{}, err
	}
	if useCkpt {
		os.Remove(CheckpointPath(path))
		os.Remove(SidecarPath(path))
	}
	return st, nil
}

func (b *builder) setOutput(w io.WriteSeeker) {
	b.w = w
	// bufio sees only a Writer, so buffered tile writes can never
	// interleave with the final header patch unflushed.
	b.bw = bufio.NewWriterSize(struct{ io.Writer }{w}, 1<<20)
}

// run scans the rows not yet durable, then writes the index and the
// back-patched header carrying its offset.
func (b *builder) run() (BuildStats, error) {
	rows := min(b.nt, max(b.n, 1))
	b.stripe = Stripe{N: b.n, Vals: make([]float64, rows*b.n), RowEnd: make([]int, rows)}

	if start := b.startStripe * b.nt; start == 0 || start < b.n {
		// A visit callback cannot abort the stream, so a write failure is
		// recorded and the scan cancelled through the driver's own context
		// plumbing; the recorded error wins over the resulting ctx.Err.
		parent := b.spec.LD.Ctx
		if parent == nil {
			parent = context.Background()
		}
		ctx, cancel := context.WithCancel(parent)
		defer cancel()
		ld := b.spec.LD
		ld.Ctx = ctx
		ld.Measures = b.spec.Stat.Measure()
		so := core.StreamOptions{
			Options:     ld,
			StripeRows:  b.nt,
			Triangular:  true,
			Exact:       true,
			Banded:      b.spec.Params.Banded,
			Band:        b.spec.Params.Band,
			IOPanelSNPs: b.spec.IOPanelSNPs,
		}
		if start > 0 {
			so.RowStart, so.RowEnd = start, b.n
		}
		var visitErr error
		streamErr := core.StreamSource(b.src, so, func(i, j0 int, row []float64) {
			if visitErr != nil {
				return
			}
			if visitErr = b.addRow(i, row); visitErr != nil {
				cancel()
			}
		})
		if visitErr != nil {
			return BuildStats{}, visitErr
		}
		if streamErr != nil {
			return BuildStats{}, streamErr
		}
	}

	f := b.spec.Format
	b.hdr.IndexOffset = uint64(b.offset)
	b.spec.Encoder.FinishHeader(&b.hdr, b.index)
	entry := make([]byte, IndexEntrySize)
	for _, e := range b.index {
		e.encode(entry)
		if _, err := b.bw.Write(entry); err != nil {
			return BuildStats{}, err
		}
	}
	if err := b.bw.Flush(); err != nil {
		return BuildStats{}, err
	}
	if _, err := b.w.Seek(0, io.SeekStart); err != nil {
		return BuildStats{}, err
	}
	if _, err := b.w.Write(b.hdr.encode(f)); err != nil {
		return BuildStats{}, err
	}
	return BuildStats{
		Tiles:     len(b.index),
		TileBytes: b.offset - int64(f.HeaderSize()),
		FileBytes: b.offset + int64(len(b.index))*IndexEntrySize,
		// The scan's own stripe has the shape of ours.
		PeakResultBytes: 2 * 8 * int64(len(b.stripe.Vals)),
		StartStripe:     b.startStripe,
	}, nil
}

// addRow copies one streamed row into the stripe buffer and flushes the
// stripe once its last row has arrived. The stream delivers rows in
// order; the builder asserts that rather than trusting it silently.
func (b *builder) addRow(i int, row []float64) error {
	if i != b.next {
		return b.spec.Format.errorf("stream delivered row %d, want %d", i, b.next)
	}
	b.next++
	s := &b.stripe
	if i%b.nt == 0 {
		s.I0, s.Rows, s.Width = i, min(b.nt, b.n-i), b.n-i
	}
	r := i - s.I0
	copy(s.Vals[r*s.Width+r:(r+1)*s.Width], row)
	s.RowEnd[r] = i + len(row)
	if r == s.Rows-1 {
		return b.flushStripe()
	}
	return nil
}

// flushStripe encodes and appends every tile of the buffered tile row,
// then checkpoints it.
func (b *builder) flushStripe() error {
	s := &b.stripe
	ti := s.I0 / b.nt
	for tj := ti; tj < b.bands; tj++ {
		payload, aux, err := b.spec.Encoder.EncodeTile(s, tileAt(b.n, b.nt, ti, tj))
		if err != nil {
			return err
		}
		if _, err := b.bw.Write(payload); err != nil {
			return err
		}
		b.index = append(b.index, Entry{
			Offset: uint64(b.offset),
			Length: uint32(len(payload)),
			CRC:    crc32.ChecksumIEEE(payload),
			Aux:    aux,
		})
		b.offset += int64(len(payload))
	}
	if b.ck != nil {
		if err := b.bw.Flush(); err != nil {
			return err
		}
		if err := b.file.Sync(); err != nil {
			return err
		}
		if err := b.ck.commit(b.spec.Format, b.index, b.stripesDone+1, b.offset); err != nil {
			return err
		}
	}
	b.stripesDone++
	return nil
}
