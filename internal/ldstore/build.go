package ldstore

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/core"
)

// BuildOptions configures a store build.
type BuildOptions struct {
	// TileSize is NT, the side of each square tile (default 256): larger
	// tiles amortize index overhead, smaller ones read fewer cells past a
	// small query's edges. NT²×8 bytes must not exceed 64 MiB.
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
	// scratch (see BuildFileFromSource). Resume restarts from an existing
	// manifest (implies Checkpoint): without one the build starts fresh,
	// and one that does not match this dataset and these options — the
	// predicate included — is refused.
	Checkpoint bool
	Resume     bool
}

// BuildStats reports what a build wrote and the memory bound it ran
// under.
type BuildStats struct {
	// Tiles is the number of tiles indexed; TileBytes their total payload
	// size on disk; FileBytes the whole container including header and
	// index.
	Tiles     int
	TileBytes int64
	FileBytes int64
	// PeakResultBytes is the build's result-storage high-water mark,
	// never the n² result: three stripes circulate between the scan and
	// the writer, and the scan holds stripes of its own besides, one per
	// stripe in flight (Threads of them, up to the stripe count). A dense
	// build's are counts stripes, each NT rows to n at the store's count
	// width plus one 8-byte maximum per tile (core.CountStripe.Bytes):
	// (Threads + 3) × NT × n × 2 bytes at N ≤ 65 535, and that plus the
	// maxima. A kept build's are survivor lists, counted at the largest
	// stripe it delivered (core.KeptStripe.Bytes and ScanBytes); at τ = 0
	// with no band every cell survives, and that is O((Threads + 3) ×
	// TileSize × SNPs) at 8 bytes a cell, a column and a count. Growth
	// slack is not counted.
	PeakResultBytes int64
	// StartStripe is the tile row the build began at: 0 for a fresh
	// build, the checkpoint's stripe count for a resumed one.
	StartStripe int

	// Where this call's time went, by pipeline stage. ScanWaitNanos is how
	// long the scan sat blocked for a free stripe buffer: the output
	// side's back-pressure on the compute side. EncodeWriteNanos is the
	// writer's busy time (encode, CRC, append, flush, and asking the kernel
	// to start writing the flushed stripe back) and CommitNanos the
	// committer's (fsyncs and the manifest rename); both overlap the scan.
	ScanWaitNanos    int64
	EncodeWriteNanos int64
	CommitNanos      int64
	// Commits is the number of manifests written: at most one per second
	// of scanning (commitInterval), plus one when a failure or cancel ends
	// the build. The final stripe is never committed — the seal makes it
	// durable — so a build that finishes inside the interval writes none;
	// 0 without checkpointing.
	Commits int
	// NNZ is the entries a pruned store kept (0 for a complete one).
	NNZ int64
}

// builder is the single build driver, a three-stage pipeline:
//
//	scan (core.StreamSourceCounts, or StreamSourceKept for a pruned store)
//	→ writer (encode, CRC, append, index, flush, writeback)
//	→ committer (fsync, sidecar, manifest; checkpointed file builds only,
//	at most once per commitInterval)
//
// The builder is the scan's sink (through countSink a core.CountSink, or
// through keptSink a core.KeptSink): the scan hands each stripe over in one
// of three circulating buffers — a counts scan swaps in the storage it
// computed into, a kept scan merges its survivors in — the writer drains
// the ones already handed over, and the committer makes the newest flushed
// stripe durable while both run on. Each field below belongs to one stage
// while the pipeline runs; everything is joined before run reads any of it
// back.
type builder struct {
	opt    SourceBuildOptions // validated, TileSize defaulted
	pruned bool
	format *fileFormat
	enc    tileEncoder
	src    bitmat.Source
	n, nt  int
	bands  int
	hdr    Header
	head   []byte // hdr's bytes, hdr.Table a view of them
	id     identity
	// alleles are every SNP's derived-allele counts, handed over by the
	// scan before any stripe and written into hdr.Table at the seal.
	alleles []uint32

	// Scan side. stripeBytes is the largest stripe delivered, scanBytes the
	// most the scan held besides the sink's stripes (see PeakResultBytes).
	so                     core.StreamOptions
	stripeBytes, scanBytes int64
	next                   int     // first row of the stripe the scan must deliver next
	cur                    *stripe // the buffer the scan is handing over into, nil between stripes

	// The stripe buffers circulate free → scan → full → writer → free; both
	// channels hold every buffer there is, so only the scan's wait for a
	// free one ever blocks.
	free, full chan *stripe

	// Writer side.
	bw     *bufio.Writer
	offset int64
	index  []Entry

	// commits carries the writer's newest flushed position to the
	// committer; nil unless checkpointing. sealing, set before the channel
	// is closed, says the scan and the writer both finished cleanly, so the
	// seal will make every stripe durable.
	commits chan commitReq
	sealing bool

	// The first error of any stage (failErr is read only after the join),
	// and the cancel that stops the scan.
	failed  atomic.Bool
	failErr error
	cancel  context.CancelFunc

	file        *os.File
	ck          *checkpoint // nil unless checkpointing
	startStripe int
	// stripesDone counts durable stripes: advanced by the committer when
	// checkpointing, by the writer otherwise.
	stripesDone int

	stats BuildStats
}

// commitReq asks the committer to make everything up to a flushed stripe
// durable: index holds every entry through that stripe, offset is where
// its tile bytes end.
type commitReq struct {
	index   []Entry
	stripes int
	offset  int64
}

// stripePool recycles the builders' stripe buffers across builds, counts
// and kept alike. A recycled buffer is not cleared: the scan rewrites what
// its encoder reads.
var stripePool = sync.Pool{New: func() any { return new(stripe) }}

// newBuilder validates the options and lays out the header of a store of
// the given kind over src: counts as wide as N calls for, in tiles and in
// the allele-count table, and a pruned store's predicate in the extension.
func newBuilder(src bitmat.Source, opt SourceBuildOptions, pruned bool) (*builder, error) {
	switch {
	case math.IsNaN(opt.Threshold) || opt.Threshold < 0:
		return nil, errorf("invalid threshold %v", opt.Threshold)
	case opt.Banded && opt.Band < 0:
		return nil, errorf("invalid band width %d", opt.Band)
	case !opt.Banded && opt.Band != 0:
		return nil, errorf("Band=%d set without Banded", opt.Band)
	case !pruned && opt.Stat != 0 && opt.Stat != StatR2:
		return nil, errorf("a complete store serves every measure; Stat %v selects a pruned store's", opt.Stat)
	}
	if opt.TileSize == 0 {
		opt.TileSize = 256
	}
	stat := StatR2
	if pruned && opt.Stat != 0 {
		stat = opt.Stat
	}
	if err := checkTileSize(int64(opt.TileSize)); err != nil {
		return nil, err
	}
	if !stat.Valid() {
		return nil, errorf("invalid statistic kind %d", uint32(stat))
	}
	f := formatOf(pruned)
	n, nt := src.NumSNPs(), opt.TileSize
	t := bandsFor(n, nt)
	width := core.CountBytes(src.NumSamples())
	b := &builder{opt: opt, pruned: pruned, format: f, src: src, n: n, nt: nt, bands: t,
		hdr: Header{
			Stat:        stat,
			SNPs:        uint64(n),
			Samples:     uint64(src.NumSamples()),
			TileSize:    uint32(nt),
			TableWidth:  uint32(width),
			Fingerprint: src.Fingerprint(),
			TileCount:   uint64(tilesThrough(t, t)),
			Ext:         make([]byte, f.extSize),
		},
		enc: &encoder{width: uint32(width)},
	}
	b.id = identity{
		Fingerprint: b.hdr.Fingerprint, SNPs: n, Samples: src.NumSamples(),
		TileSize: nt, Stat: uint32(stat),
	}
	if pruned {
		b.enc = &keptEncoder{width: uint32(width)}
		b.id.ThresholdBits, b.id.Banded, b.id.Band = math.Float64bits(opt.Threshold), opt.Banded, opt.Band
		binary.LittleEndian.PutUint64(b.hdr.Ext[extThreshold:], b.id.ThresholdBits)
		if opt.Banded {
			b.hdr.Flags = flagBanded
			binary.LittleEndian.PutUint64(b.hdr.Ext[extBand:], uint64(opt.Band))
		}
	}
	b.offset = b.hdr.dataStart(f)
	// The header is encoded at the start and at the seal into one buffer,
	// whose table part finishHeader fills in place.
	b.head = make([]byte, b.offset)
	b.hdr.Table = b.head[f.headerSize():]
	// Full capacity up front: the writer appends while the committer reads
	// the entries of an earlier stripe, so the array must never move.
	b.index = make([]Entry, 0, b.hdr.TileCount)
	return b, nil
}

// BuildFile computes the joint counts of every SNP pair of g (only the
// |i−j| ≤ Band pairs of a banded build) with the blocked driver and writes
// the store to path, removing the partial file on failure: pruned when opt
// has a threshold or a band, complete otherwise. See BuildFileFromSource
// for the scan and its memory bound.
func BuildFile(path string, g *bitmat.Matrix, opt BuildOptions) (BuildStats, error) {
	return BuildFileFromSource(path, bitmat.NewMemSource(g), SourceBuildOptions{BuildOptions: opt})
}

// BuildFileFromSource builds the store at path from any bitmat.Source — a
// resident matrix, or a windowed .ldbm container that never fits
// in memory — with byte-identical output either way: pruned when opt has a
// threshold or a band, complete otherwise.
//
// It rides core's triangular striped scan with StripeRows = TileSize, so
// each tile row is produced from one stripe and result memory stays
// O((Threads + 3) × TileSize × SNPs) no matter how large the full n²
// matrix would be (PeakResultBytes); every source runs the double-buffered
// panel schedule, a resident bitmat.MemSource one panel wide. A complete
// store's build runs the counts scan (core.StreamSourceCounts) and a
// pruned one's the kept scan (core.StreamSourceKept), each Threads stripes
// at once; each stripe in flight holds its counts or survivors until its
// turn, which for a kept scan is far less than every cell at any useful τ.
// The output side is buffered too: a writer goroutine encodes and appends
// stripe s while the scan computes the next. Values are the Exact
// epilogue's, so a store serves the bits the dense core.Matrix path a
// serverless request would compute. The scan is cancelled through
// opt.LD.Blis.Ctx, and by the build itself when a stage fails.
//
// Every stripe is flushed to the file as the writer finishes it and the
// kernel is asked to start writing it back, so the data is mostly on disk
// by the time the seal's one fsync makes the whole store durable. With
// opt.Checkpoint it also maintains the manifest and index sidecar, never
// past durable data: a committer goroutine fsyncs and renames behind the
// writer at most once per commitInterval (one second), each manifest
// covering every stripe flushed since the last, and at once when a failure
// or cancel ends the build. A kill therefore loses at most about a second
// of stripes plus the commit in flight. The final stripe is never
// committed: the seal makes it durable and the sidecars are then removed,
// so a build that finishes inside the interval pays for durability once.
// With opt.Resume it restarts from an existing manifest (starting fresh
// without one, refusing one written by a different dataset or options),
// re-computing only the stripes past it and converging to the bytes of an
// uninterrupted build.
//
// A checkpointed build that fails after at least one stripe has been
// flushed returns a *PartialError carrying the progress and leaves the
// partial store and its sidecars in place for a later Resume. Any other
// build removes the partial file and returns the failure itself.
func BuildFileFromSource(path string, src bitmat.Source, opt SourceBuildOptions) (BuildStats, error) {
	return build(path, src, opt, opt.Threshold != 0 || opt.Banded)
}

// BuildPrunedFromSource is BuildFileFromSource for a pruned store whatever
// the predicate: at τ = 0 with no band it keeps every cell of the upper
// triangle, as CSR, for the sparse operators.
func BuildPrunedFromSource(path string, src bitmat.Source, opt SourceBuildOptions) (BuildStats, error) {
	return build(path, src, opt, true)
}

// build is the one build driver: a store of the given kind at path.
func build(path string, src bitmat.Source, opt SourceBuildOptions, pruned bool) (BuildStats, error) {
	b, err := newBuilder(src, opt, pruned)
	if err != nil {
		return BuildStats{}, err
	}
	f := b.format
	useCkpt := opt.Checkpoint || opt.Resume
	if opt.Resume {
		raw, rerr := os.ReadFile(CheckpointPath(path))
		switch {
		case rerr == nil:
			m, err := parseManifest(f, raw)
			if err != nil {
				return BuildStats{}, err
			}
			if m.identity != b.id {
				return BuildStats{}, errorf("checkpoint at %s was written by a different build (dataset or options changed); remove it to start over", CheckpointPath(path))
			}
			var loaded []Entry
			if b.file, b.ck, loaded, err = resume(path, m, b.hdr.dataStart(f)); err != nil {
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
		// A fresh build writes a new inode: a Store still open on the old
		// file keeps reading the old file's bytes, and no stale sidecar
		// outlives it.
		for _, p := range []string{path, SidecarPath(path), CheckpointPath(path), manifestTemp(CheckpointPath(path))} {
			if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
				return BuildStats{}, err
			}
		}
		if b.file, err = os.Create(path); err != nil {
			return BuildStats{}, err
		}
		b.hdr.encode(f, b.head)
		if _, err = (dataFile{b.file}).Write(b.head); err == nil && useCkpt {
			b.ck = &checkpoint{path: path, id: b.id}
			b.ck.sidecar, err = os.Create(SidecarPath(path))
		}
		if err != nil {
			b.file.Close()
			os.Remove(path)
			return BuildStats{}, err
		}
	}
	// bufio sees only a Writer, so buffered tile writes can never
	// interleave with the final header patch unflushed.
	b.bw = writerPool.Get().(*bufio.Writer)
	b.bw.Reset(struct{ io.Writer }{dataFile{b.file}})
	defer func() {
		b.bw.Reset(nil)
		writerPool.Put(b.bw)
	}()

	st, err := b.run()
	if err == nil {
		err = fsys.sync(b.file)
	}
	if cerr := b.file.Close(); err == nil {
		err = cerr
	}
	if b.ck != nil {
		b.ck.sidecar.Close()
	}
	if err != nil {
		if !useCkpt {
			// Nothing of a build without a checkpoint is durable: the
			// partial file goes, and the error is the stage's own.
			os.Remove(path)
		} else if b.stripesDone > b.startStripe || b.startStripe > 0 {
			err = &PartialError{FlushedStripes: b.stripesDone, TotalStripes: b.bands, Err: err}
		}
		return BuildStats{}, err
	}
	if useCkpt {
		os.Remove(CheckpointPath(path))
		os.Remove(manifestTemp(CheckpointPath(path)))
		os.Remove(SidecarPath(path))
	}
	return st, nil
}

// writerPool recycles the builds' 1 MiB output buffers: Reset drops
// whatever an earlier build left unflushed, so a pooled writer starts as
// empty as a fresh one.
var writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 1<<20) }}

// fsys holds the calls a build's durability rests on, plus the writeback
// hint, which is never durability: a range written back is durable only
// once a sync covers it. It exists so the pipeline tests can record their
// order and inject faults; nothing else assigns it.
var fsys = struct {
	write     func(f *os.File, p []byte) (int, error) // store bytes to the data file
	writeback func(f *os.File, off, n int64)          // start writing flushed data-file bytes back
	sync      func(f *os.File) error                  // data file, sidecar, manifest temp
	rename    func(oldpath, newpath string) error     // manifest temp → manifest
}{(*os.File).Write, writeback, (*os.File).Sync, os.Rename}

// commitInterval is the least time between two checkpoint commits of one
// build, the first counted from the scan's start. Only tests change it.
var commitInterval = time.Second

// dataFile is the store's data file with its writes routed through fsys.
type dataFile struct{ *os.File }

func (d dataFile) Write(p []byte) (int, error) { return fsys.write(d.File, p) }

// run scans the rows not yet durable through the pipeline, then writes
// the index and the back-patched header carrying its offset.
func (b *builder) run() (BuildStats, error) {
	if start := b.startStripe * b.nt; start == 0 || start < b.n {
		if err := b.scan(start); err != nil {
			return BuildStats{}, err
		}
	}

	f := b.format
	b.hdr.IndexOffset = uint64(b.offset)
	nnz := b.finishHeader()
	entry := make([]byte, indexEntrySize)
	for _, e := range b.index {
		e.encode(entry)
		if _, err := b.bw.Write(entry); err != nil {
			return BuildStats{}, err
		}
	}
	if err := b.bw.Flush(); err != nil {
		return BuildStats{}, err
	}
	if _, err := b.file.Seek(0, io.SeekStart); err != nil {
		return BuildStats{}, err
	}
	b.hdr.encode(f, b.head)
	if _, err := (dataFile{b.file}).Write(b.head); err != nil {
		return BuildStats{}, err
	}
	st := b.stats
	st.Tiles = len(b.index)
	st.TileBytes = b.offset - b.hdr.dataStart(f)
	st.FileBytes = b.offset + int64(len(b.index))*indexEntrySize
	st.PeakResultBytes = stripeBuffers*b.stripeBytes + b.scanBytes
	st.StartStripe = b.startStripe
	st.NNZ = nnz
	return st, nil
}

// scan runs the stream from row start with the writer and, when
// checkpointing, the committer behind it, and returns once all three have
// finished. A stripe the scan handed over is written and committed
// whatever stops the scan afterwards (a cancelled parent context, a failed
// source read), so stripesDone and the manifest always agree; only a clean
// end leaves the stripes since the last commit to the seal. A stage's
// own error cannot abort the stream from inside a sink callback: it is
// recorded, the scan is cancelled through the driver's context plumbing,
// and the recorded error wins over the resulting ctx.Err.
func (b *builder) scan(start int) error {
	parent := b.opt.LD.Blis.Ctx
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	b.cancel = cancel
	ld := b.opt.LD
	ld.Blis.Ctx = ctx
	ld.Measures = b.hdr.Stat.Measure()
	b.so = core.StreamOptions{
		Options:     ld,
		StripeRows:  b.nt,
		Triangular:  true,
		Exact:       true,
		Banded:      b.opt.Banded,
		Band:        b.opt.Band,
		IOPanelSNPs: b.opt.IOPanelSNPs,
	}
	if start > 0 {
		b.so.RowStart, b.so.RowEnd = start, b.n
	}

	b.free, b.full = make(chan *stripe, stripeBuffers), make(chan *stripe, stripeBuffers)
	for range stripeBuffers {
		b.free <- stripePool.Get().(*stripe)
	}
	var writer, committer sync.WaitGroup
	if b.ck != nil {
		b.commits = make(chan commitReq, 1)
		committer.Add(1)
		go func() {
			defer committer.Done()
			b.commitStripes()
		}()
	}
	writer.Add(1)
	go func() {
		defer writer.Done()
		b.writeStripes()
	}()

	var streamErr error
	if b.pruned {
		streamErr = core.StreamSourceKept(b.src, b.so, keptSink{b})
	} else {
		streamErr = core.StreamSourceCounts(b.src, b.so, countSink{b})
	}

	close(b.full)
	writer.Wait()
	if b.commits != nil {
		b.sealing = streamErr == nil && !b.failed.Load()
		close(b.commits)
		committer.Wait()
	}
	if b.cur != nil {
		stripePool.Put(b.cur)
	}
	for range len(b.free) {
		stripePool.Put(<-b.free)
	}
	if b.failErr != nil {
		return b.failErr
	}
	return streamErr
}

// fail records the first error of any stage and cancels the scan.
func (b *builder) fail(err error) {
	if b.failed.CompareAndSwap(false, true) {
		b.failErr = err
		b.cancel()
	}
}

// stripeBuffers is how many stripe buffers circulate: one the scan hands
// over into, one queued and one the writer is encoding. The scan can
// therefore hand over two whole stripes ahead of a stalled writer; its
// stripes in flight wait for their turn in storage of its own.
const stripeBuffers = 3

// nextBuffer takes the next free stripe buffer for the scan. The writer
// returns every buffer it is handed, failed or not, so the wait always
// ends; it is timed only when it blocks.
func (b *builder) nextBuffer() *stripe {
	select {
	case b.cur = <-b.free:
	default:
		t0 := time.Now()
		b.cur = <-b.free
		b.stats.ScanWaitNanos += time.Since(t0).Nanoseconds()
	}
	return b.cur
}

// handOver passes the scan's finished stripe at rows [i0, i0+rows) to the
// writer. The stream delivers stripes in order; the builder asserts that
// rather than trusting it silently.
func (b *builder) handOver(i0, rows int) {
	s := b.cur
	b.cur = nil
	if i0 != b.next {
		b.fail(errorf("stream delivered the stripe at row %d, want %d", i0, b.next))
	}
	b.next = i0 + rows
	s.i0, s.rows = i0, rows
	b.full <- s
}

// countSink is the builder as the core.CountSink of a complete store's
// build.
type countSink struct{ *builder }

func (c countSink) Alleles(a []uint32) { c.alleles = a }

func (c countSink) CountBuffer() *core.CountStripe { return &c.nextBuffer().counts }

func (c countSink) CountDone(s *core.CountStripe) {
	c.stripeBytes = max(c.stripeBytes, s.Bytes())
	c.scanBytes = max(c.scanBytes, int64(s.InFlight)*s.Bytes())
	c.handOver(s.I0, s.Rows)
}

// keptSink is the builder as the core.KeptSink of a pruned store's build.
type keptSink struct{ *builder }

func (k keptSink) Alleles(a []uint32) { k.alleles = a }

func (k keptSink) Threshold() float64 { return k.opt.Threshold }

func (k keptSink) KeptBuffer() *core.KeptStripe { return &k.nextBuffer().kept }

func (k keptSink) KeptDone(s *core.KeptStripe) {
	k.stripeBytes = max(k.stripeBytes, s.Bytes())
	k.scanBytes = max(k.scanBytes, s.ScanBytes())
	k.handOver(s.I0, s.Rows)
}

// writeStripes is the writer stage: every stripe the scan hands over, in
// order, until the scan closes the channel. After a failure anywhere it
// only recycles buffers, so the scan never waits on a dead writer.
func (b *builder) writeStripes() {
	for s := range b.full {
		if !b.failed.Load() {
			t0 := time.Now()
			if err := b.writeStripe(s); err != nil {
				b.fail(err)
			}
			b.stats.EncodeWriteNanos += time.Since(t0).Nanoseconds()
		}
		b.free <- s
	}
}

// writeStripe encodes and appends every tile of one tile row, flushes it
// to the file and asks the kernel to start writing it back, then either
// counts it done or posts it for commit. The final stripe is never
// posted: the seal's data fsync makes it durable.
func (b *builder) writeStripe(s *stripe) error {
	ti := s.i0 / b.nt
	start := b.offset
	for tj := ti; tj < b.bands; tj++ {
		payload, aux := b.enc.encodeTile(s, tileAt(b.n, b.nt, ti, tj))
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
	if err := b.bw.Flush(); err != nil {
		return err
	}
	fsys.writeback(b.file, start, b.offset-start)
	if b.ck == nil {
		b.stripesDone++
		return nil
	}
	if ti+1 == b.bands {
		return nil
	}
	// Newest wins: commit appends index[ck.tiles:], so this request covers
	// every stripe of one the committer has not started on. The writer is
	// the only sender, so the loop ends after at most one displacement.
	req := commitReq{index: b.index, stripes: ti + 1, offset: b.offset}
	for {
		select {
		case b.commits <- req:
			return nil
		default:
		}
		select {
		case <-b.commits:
		default:
		}
	}
}

// commitStripes is the committer stage: the unchanged durability sequence
// — tile bytes to disk, index entries to disk, then the manifest rename
// that counts them — run on the newest request, no sooner than
// commitInterval after the scan started or the last commit began. A
// request that arrives sooner is held, and a newer one replaces it. The
// data fsync is issued after the request's bytes were flushed to the
// file, so a manifest never names a byte or an index entry that is not
// durable; a kill loses at most the stripes since the last commit and the
// one in flight. When the channel closes, a held request is dropped if
// the build is sealing (the seal makes those stripes durable) and
// committed at once if it is not, so a failed or cancelled build's
// manifest counts every stripe it flushed. A commit that fails ends the
// stage (the writer's post never blocks, so nothing waits on it).
func (b *builder) commitStripes() {
	var (
		held  *commitReq
		timer *time.Timer
		due   <-chan time.Time // timer.C while a held request waits on it
	)
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	next := time.Now().Add(commitInterval)
	for {
		select {
		case req, ok := <-b.commits:
			if !ok {
				if held != nil && !b.sealing {
					b.commit(*held)
				}
				return
			}
			held = &req
			if wait := time.Until(next); wait > 0 {
				if due == nil {
					if timer == nil {
						timer = time.NewTimer(wait)
					} else {
						timer.Reset(wait)
					}
					due = timer.C
				}
				continue
			}
		case <-due:
		}
		due = nil
		next = time.Now().Add(commitInterval)
		if !b.commit(*held) {
			return
		}
		held = nil
	}
}

// commit runs one round of the durability sequence for req and reports
// whether it succeeded; a failure is recorded for the build.
func (b *builder) commit(req commitReq) bool {
	t0 := time.Now()
	err := fsys.sync(b.file)
	if err == nil {
		err = b.ck.commit(b.format, req.index, req.stripes, req.offset)
	}
	b.stats.CommitNanos += time.Since(t0).Nanoseconds()
	if err != nil {
		b.fail(err)
		return false
	}
	b.stripesDone = req.stripes
	b.stats.Commits++
	return true
}
