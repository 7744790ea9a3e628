package ldstore

import (
	"ldgemm/internal/bitmat"
	"ldgemm/internal/core"
	"ldgemm/internal/tilefile"
)

// BuildOptions configures a tile-store build.
type BuildOptions struct {
	// TileSize is NT, the side of each square tile (default 256). Larger
	// tiles amortize index and seek overhead; smaller tiles sharpen the
	// LRU's working set. NT²×8 bytes must not exceed tilefile.MaxTileBytes.
	TileSize int
	// Stat selects the statistic to materialize (default StatR2).
	Stat Stat
	// Compress DEFLATE-compresses each tile payload.
	Compress bool
	// LD carries kernel blocking, threading, and context options for the
	// blocked pass that produces the tiles.
	LD core.Options
}

// SourceBuildOptions configures an out-of-core tile-store build.
type SourceBuildOptions struct {
	BuildOptions
	// IOPanelSNPs is the column-panel width of the out-of-core scheduler's
	// B-side fetches (default 1024 SNPs); the knob that trades resident
	// panel memory against per-fetch I/O efficiency for file sources.
	IOPanelSNPs int
	// Checkpoint maintains a <store>.ckpt manifest and <store>.idx index
	// sidecar, committed at most once a second and never past durable
	// data, so a killed build can restart where it left off (less at most
	// about a second of stripes and the commit in flight) instead of from
	// scratch. A failure or cancel commits every flushed stripe at once and
	// leaves the partial store and its sidecars in place; a build that
	// finishes is made durable by its final fsync alone.
	Checkpoint bool
	// Resume restarts from an existing checkpoint manifest (implies
	// Checkpoint). Without a manifest the build starts fresh; with one
	// that does not match this dataset + options, the build refuses.
	Resume bool
}

// BuildStats reports what a build wrote and the memory bound it ran
// under.
type BuildStats = tilefile.BuildStats

// PartialError reports a build that failed after durably flushing some
// stripes; see tilefile.PartialError.
type PartialError = tilefile.PartialError

func (o SourceBuildOptions) spec() tilefile.Spec {
	spec := tilefile.Spec{
		Format: &format, TileSize: o.TileSize, Stat: o.Stat,
		Params:  tilefile.Params{Compress: o.Compress},
		Encoder: newEncoder(o.Compress),
		LD:      o.LD, IOPanelSNPs: o.IOPanelSNPs,
		Checkpoint: o.Checkpoint, Resume: o.Resume,
	}
	if o.Compress {
		spec.Flags = flagCompressed
	}
	return spec
}

// BuildFile computes the selected statistic for every SNP pair of g with
// the blocked driver and writes the tile store to path, removing the
// partial file on failure; see tilefile.BuildFile for the scan and its
// memory bound.
func BuildFile(path string, g *bitmat.Matrix, opt BuildOptions) (BuildStats, error) {
	return BuildFileFromSource(path, bitmat.NewMemSource(g), SourceBuildOptions{BuildOptions: opt})
}

// BuildFileFromSource builds a tile store at path from any bitmat.Source —
// a resident matrix, or an mmap'd / windowed .ldbm container that never
// fits in memory — with byte-identical output either way; see
// tilefile.BuildFile for checkpointing, resume, and failure behaviour.
func BuildFileFromSource(path string, src bitmat.Source, opt SourceBuildOptions) (BuildStats, error) {
	return tilefile.BuildFile(path, src, opt.spec())
}
