package ldsparse

import (
	"encoding/binary"
	"fmt"
	"math"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/core"
	"ldgemm/internal/tilefile"
)

// BuildOptions configures a sparse tile-store build.
type BuildOptions struct {
	// TileSize is NT, the side of each square tile (default 256). The
	// dense-equivalent NT²×8 bytes must not exceed tilefile.MaxTileBytes,
	// which also keeps NT within the uint16 tile-local column range.
	TileSize int
	// Stat selects the statistic to materialize (default StatR2).
	Stat Stat
	// Threshold is the pruning cutoff τ: entries survive iff |v| ≥ τ,
	// selected inside the fused epilogue of the build's single streaming
	// pass, which hands the writer only the survivors. τ = 0 keeps every
	// computed cell.
	Threshold float64
	// Banded restricts the build to |i−j| ≤ Band via the streaming
	// scan's banded schedule: far-off-diagonal GEMM work is skipped
	// outright, not computed and discarded, and the resulting tiles
	// beyond the band are stored as zero-length payloads. Band = 0 is
	// legal (diagonal only). Banded is recorded in the header so readers
	// can distinguish "absent because out of band" from "pruned".
	Banded bool
	Band   int
	// LD carries kernel blocking, threading, and context options for the
	// blocked pass that produces the values.
	LD core.Options
}

// SourceBuildOptions configures an out-of-core sparse tile-store build.
type SourceBuildOptions struct {
	BuildOptions
	// IOPanelSNPs is the column-panel width of the out-of-core
	// scheduler's B-side fetches (default 1024 SNPs). In banded mode the
	// schedule caps every stripe's panels at the band edge, so this also
	// bounds the per-stripe I/O to O(Band + panel) columns.
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
	// that does not match this dataset + options — the sparse knobs
	// included, since resuming under a different pruning rule would mix
	// incompatible tiles — the build refuses.
	Resume bool
}

// BuildStats reports what a build wrote.
type BuildStats struct {
	tilefile.BuildStats
	// NNZ is the number of entries that survived pruning.
	NNZ int64
}

// PartialError is the container's partial-progress error, shared with
// ldstore so callers (the ldstore CLI's resume hint among them) handle
// both tiers' killed builds with one errors.As.
type PartialError = tilefile.PartialError

// spec validates the sparse knobs (the container validates tile size and
// statistic) and describes the build to the container's driver.
func (o SourceBuildOptions) spec() (tilefile.Spec, error) {
	if math.IsNaN(o.Threshold) || o.Threshold < 0 {
		return tilefile.Spec{}, fmt.Errorf("ldsparse: invalid threshold %v", o.Threshold)
	}
	if o.Banded && o.Band < 0 {
		return tilefile.Spec{}, fmt.Errorf("ldsparse: invalid band width %d", o.Band)
	}
	if !o.Banded && o.Band != 0 {
		return tilefile.Spec{}, fmt.Errorf("ldsparse: Band=%d set without Banded", o.Band)
	}
	spec := tilefile.Spec{
		Format: &format, TileSize: o.TileSize, Stat: o.Stat,
		Ext: make([]byte, extSize),
		Params: tilefile.Params{
			ThresholdBits: math.Float64bits(o.Threshold),
			Banded:        o.Banded, Band: o.Band,
		},
		Encoder: &encoder{tau: o.Threshold},
		LD:      o.LD, IOPanelSNPs: o.IOPanelSNPs,
		Checkpoint: o.Checkpoint, Resume: o.Resume,
	}
	binary.LittleEndian.PutUint64(spec.Ext[extThreshold:], spec.Params.ThresholdBits)
	if o.Banded {
		spec.Flags = flagBanded
		binary.LittleEndian.PutUint64(spec.Ext[extBand:], uint64(o.Band))
	}
	return spec, nil
}

// buildStats reads the entry count FinishHeader stamped into the spec's
// header extension.
func buildStats(st tilefile.BuildStats, err error, spec tilefile.Spec) (BuildStats, error) {
	if err != nil {
		return BuildStats{}, err
	}
	return BuildStats{BuildStats: st, NNZ: int64(binary.LittleEndian.Uint64(spec.Ext[extNNZ:]))}, nil
}

// BuildFile computes the selected statistic for every SNP pair of g (or
// only the |i−j| ≤ Band pairs in banded mode) with the blocked driver and
// writes the threshold-pruned CSR tile store to path, removing the partial
// file on failure; each tile row is serialized from one stripe of the
// scan's survivors. See tilefile.BuildFile for the scan and its memory
// bound.
func BuildFile(path string, g *bitmat.Matrix, opt BuildOptions) (BuildStats, error) {
	return BuildFileFromSource(path, bitmat.NewMemSource(g), SourceBuildOptions{BuildOptions: opt})
}

// BuildFileFromSource builds a sparse tile store at path from any
// bitmat.Source (band-capped panel schedule when Banded), with
// byte-identical output whatever the source; see tilefile.BuildFile for
// checkpointing, resume, and failure behaviour.
func BuildFileFromSource(path string, src bitmat.Source, opt SourceBuildOptions) (BuildStats, error) {
	spec, err := opt.spec()
	if err != nil {
		return BuildStats{}, err
	}
	st, err := tilefile.BuildFile(path, src, spec)
	return buildStats(st, err, spec)
}
