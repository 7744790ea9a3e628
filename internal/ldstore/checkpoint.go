package ldstore

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Checkpointing for out-of-core builds. A genome-scale build can run for
// hours; a kill (OOM, preemption, operator) must not forfeit the stripes
// already computed. Two small files ride alongside the store being built:
//
//   - the manifest (<store>.ckpt): a JSON record of how many stripes are
//     durably on disk, the data-file byte offset they end at, and the full
//     build identity (dataset fingerprint + options). Written with the
//     atomic temp+rename idiom, strictly after the tile bytes and index
//     entries it counts have been fsync'd — so the manifest never points
//     past data that could be lost.
//   - the index sidecar (<store>.idx): the raw 24-byte Entry records of
//     every committed tile, appended per commit. The store's real index
//     only lands at end-of-file once the build completes, so a resumed
//     build reloads the entries it can no longer recompute from here.
//
// Commits run on their own goroutine behind the build's writer (see
// builder.commitStripes), at most once per commitInterval (one second),
// and each takes the newest flushed position. A kill therefore loses at
// most about a second of stripes plus the commit in flight: a bounded
// loss traded for not paying three fsyncs per stripe. A failure or cancel
// commits the newest flushed stripe at once. The final stripe is never
// committed; the seal makes it durable, so a build that finishes within
// the interval writes no manifest at all. Meanwhile the writer asks the
// kernel to write each flushed stripe back as it goes — a head start on
// the fsyncs, never a substitute for them.
//
// Resume truncates the data file to the manifest's offset, reloads the
// sidecar, and restarts the scan at the next stripe via the stream's row
// window. Tile payloads are deterministic and column-panel independent, so
// the resumed build's output is byte-identical to an uninterrupted one's;
// both sidecar files are removed on success.

// CheckpointPath returns the manifest path for a store being built at
// path; SidecarPath the index sidecar's.
func CheckpointPath(path string) string { return path + ".ckpt" }
func SidecarPath(path string) string    { return path + ".idx" }

// identity is everything a manifest must match to be resumed: mixing
// stripes of two datasets or two option sets would be silently wrong. A
// complete store's build has no predicate, so its last three are zero.
type identity struct {
	Fingerprint uint64 `json:"fingerprint"`
	SNPs        int    `json:"snps"`
	Samples     int    `json:"samples"`
	TileSize    int    `json:"tile_size"`
	Stat        uint32 `json:"stat"`
	// ThresholdBits is the pruning cutoff τ as raw float64 bits, so
	// identity is exact, never a formatting round trip.
	ThresholdBits uint64 `json:"threshold_bits"`
	// Banded restricts the build to |i−j| ≤ Band.
	Banded bool `json:"banded"`
	Band   int  `json:"band"`
}

// manifest is the checkpoint record of a partially built store.
type manifest struct {
	Version int    `json:"version"` // formatVersion
	Magic   string `json:"magic"`   // fileFormat.manifestMagic
	identity

	// Progress: StripesDone stripes are durably flushed, their tile
	// payloads ending at DataOffset in the data file, with TilesWritten
	// index entries in the sidecar.
	StripesDone  int   `json:"stripes_done"`
	DataOffset   int64 `json:"data_offset"`
	TilesWritten int   `json:"tiles_written"`
}

// parseManifest decodes and validates a checkpoint manifest of format f.
// Every field is cross-checked for internal consistency so a corrupt or
// truncated manifest is rejected rather than resumed into a wrong store.
func parseManifest(f *fileFormat, b []byte) (manifest, error) {
	var m manifest
	fail := func(format string, args ...any) (manifest, error) {
		return m, errorf("checkpoint manifest: "+format, args...)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return fail("%w", err)
	}
	if m.Magic != f.manifestMagic {
		return fail("bad magic %q", m.Magic)
	}
	if m.Version != formatVersion {
		return fail("version %d, this build resumes only version %d", m.Version, formatVersion)
	}
	if m.SNPs < 0 || int64(m.SNPs) > maxSNPs || m.Samples < 0 || int64(m.Samples) > maxSamples {
		return fail("implausible dimensions %d×%d", m.SNPs, m.Samples)
	}
	if checkTileSize(int64(m.TileSize)) != nil {
		return fail("invalid tile size %d", m.TileSize)
	}
	if !Stat(m.Stat).Valid() {
		return fail("invalid statistic %d", m.Stat)
	}
	if tau := math.Float64frombits(m.ThresholdBits); math.IsNaN(tau) || tau < 0 {
		return fail("invalid threshold %v", tau)
	}
	if m.Band < 0 || (!m.Banded && m.Band != 0) {
		return fail("invalid band %d (banded=%v)", m.Band, m.Banded)
	}
	t := bandsFor(m.SNPs, m.TileSize)
	if m.StripesDone < 0 || m.StripesDone > t {
		return fail("%d stripes done of %d", m.StripesDone, t)
	}
	if want := tilesThrough(t, m.StripesDone); int64(m.TilesWritten) != want {
		return fail("%d tiles written, want %d for %d stripes", m.TilesWritten, want, m.StripesDone)
	}
	if m.DataOffset < int64(f.headerSize()) {
		return fail("data offset %d inside header", m.DataOffset)
	}
	return m, nil
}

// manifestTemp is where writeManifest stages the manifest at path.
func manifestTemp(path string) string { return path + ".tmp" }

// writeManifest atomically replaces path with the encoded manifest:
// temp file in the same directory, fsync, rename. The temp file is
// removed whichever step fails.
func writeManifest(path string, m manifest) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := manifestTemp(path)
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(b); err == nil {
		err = fsys.sync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// checkpoint is the open checkpoint state of one file build: the index
// sidecar, how many entries it durably holds, and the identity every
// manifest of this build carries.
type checkpoint struct {
	path    string // of the store being built
	sidecar *os.File
	id      identity
	tiles   int
}

// resume reopens the partial store at path under manifest m: the data
// file and sidecar positioned to append, plus the index entries of the
// tiles already durable. It refuses a data file shorter than the
// manifest's durable offset and sidecar entries that do not chain from
// dataStart, where the header and per-SNP table end, to exactly that
// offset: either means the files are not
// the ones the manifest describes, and continuing would bake a hole into
// a store that then opens cleanly and fails its first CRC.
func resume(path string, m manifest, dataStart int64) (data *os.File, ck *checkpoint, entries []Entry, err error) {
	if data, err = os.OpenFile(path, os.O_RDWR, 0o644); err != nil {
		return nil, nil, nil, errorf("resume: %w", err)
	}
	sidecar, err := os.OpenFile(SidecarPath(path), os.O_RDWR, 0o644)
	if err != nil {
		data.Close()
		return nil, nil, nil, errorf("resume: %w", err)
	}
	if entries, err = loadCheckpoint(data, sidecar, m, dataStart); err != nil {
		data.Close()
		sidecar.Close()
		return nil, nil, nil, errorf("resume %s: %w", path, err)
	}
	return data, &checkpoint{path: path, sidecar: sidecar, id: m.identity, tiles: m.TilesWritten}, entries, nil
}

// loadCheckpoint validates both files against m, then discards anything
// past the durable state — tile bytes and sidecar entries whose manifest
// rename never landed — leaving both files positioned to append.
func loadCheckpoint(data, sidecar *os.File, m manifest, dataStart int64) ([]Entry, error) {
	fi, err := sidecar.Stat()
	if err != nil {
		return nil, err
	}
	want := int64(m.TilesWritten) * indexEntrySize
	if fi.Size() < want {
		return nil, fmt.Errorf("index sidecar holds %d bytes, need %d for %d tiles", fi.Size(), want, m.TilesWritten)
	}
	b := make([]byte, want)
	if _, err := sidecar.ReadAt(b, 0); err != nil {
		return nil, err
	}
	entries := make([]Entry, m.TilesWritten)
	end := uint64(dataStart)
	for i := range entries {
		entries[i] = decodeEntry(b[i*indexEntrySize:])
		if entries[i].Offset != end {
			return nil, fmt.Errorf("sidecar tile %d starts at %d, want %d", i, entries[i].Offset, end)
		}
		end += uint64(entries[i].Length)
	}
	if end != uint64(m.DataOffset) {
		return nil, fmt.Errorf("sidecar tiles end at %d, manifest data offset is %d", end, m.DataOffset)
	}
	if fi, err = data.Stat(); err != nil {
		return nil, err
	}
	if fi.Size() < m.DataOffset {
		return nil, fmt.Errorf("data file holds %d bytes, short of the durable offset %d", fi.Size(), m.DataOffset)
	}
	if err := cutTo(sidecar, want); err != nil {
		return nil, err
	}
	if err := cutTo(data, m.DataOffset); err != nil {
		return nil, err
	}
	return entries, nil
}

// cutTo truncates f to size and positions it there to append.
func cutTo(f *os.File, size int64) error {
	if err := f.Truncate(size); err != nil {
		return err
	}
	_, err := f.Seek(size, io.SeekStart)
	return err
}

// commit makes every stripe through stripesDone durable: it appends the
// index entries past the last commit, however many stripes they span. The
// caller has already synced the tile bytes up to dataOffset to the data
// file. Durability order: tile bytes to disk, index entries to disk, then
// the manifest rename that makes the stripe count them. A crash between
// any two steps leaves the previous manifest authoritative.
func (ck *checkpoint) commit(f *fileFormat, index []Entry, stripesDone int, dataOffset int64) error {
	fresh := index[ck.tiles:]
	buf := make([]byte, len(fresh)*indexEntrySize)
	for i, e := range fresh {
		e.encode(buf[i*indexEntrySize:])
	}
	if _, err := ck.sidecar.Write(buf); err != nil {
		return err
	}
	if err := fsys.sync(ck.sidecar); err != nil {
		return err
	}
	ck.tiles = len(index)
	return writeManifest(CheckpointPath(ck.path), manifest{
		Version: formatVersion, Magic: f.manifestMagic, identity: ck.id,
		StripesDone: stripesDone, DataOffset: dataOffset, TilesWritten: ck.tiles,
	})
}

// PartialError reports a checkpointed build that failed after durably
// flushing some stripes, which a retry with Resume keeps; the error
// carries how far the build got so operators see partial progress rather
// than a bare failure.
type PartialError struct {
	// FlushedStripes tile rows are durably on disk, of TotalStripes.
	FlushedStripes int
	TotalStripes   int
	Err            error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("tile store build failed after %d/%d stripes durably flushed: %v",
		e.FlushedStripes, e.TotalStripes, e.Err)
}

func (e *PartialError) Unwrap() error { return e.Err }
