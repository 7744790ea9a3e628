package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/core"
	"ldgemm/internal/ldsparse"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/popsim"
)

// sparseEnforceSNPs is the matrix size above which the sparse benchmark's
// acceptance ratios are enforced: below it the stores are so small that
// fixed header/index overheads drown the asymptotic claims.
const sparseEnforceSNPs = 2048

// sparseReport is the BENCH_sparse.json schema: the sparse/banded tier's
// three claims on one dataset — a threshold-pruned LDSS store is a small
// fraction of the dense LDTS store, a near-diagonal band skips enough
// GEMM to cut build time, and the CSR matvec serves R·v at memory speed
// while matching the dense fold bit-for-bit on kept entries.
type sparseReport struct {
	SNPs      int     `json:"snps"`
	Samples   int     `json:"samples"`
	Words     int     `json:"words"`
	TileSize  int     `json:"tile_size"`
	Threshold float64 `json:"threshold"`
	Band      int     `json:"band"`

	// Build-time trajectory: the dense LDTS build, the full-matrix sparse
	// build at the threshold, and the banded sparse build at Band.
	DenseBuildSeconds  float64 `json:"dense_build_seconds"`
	SparseBuildSeconds float64 `json:"sparse_build_seconds"`
	BandedBuildSeconds float64 `json:"banded_build_seconds"`
	// BandSpeedup is full-matrix sparse build time over banded build time:
	// the payoff of skipping far-off-diagonal tile pairs entirely.
	BandSpeedup float64 `json:"band_speedup"`

	// Store sizes: the dense store, the pruned store, and their ratio.
	DenseStoreBytes  int64   `json:"dense_store_bytes"`
	SparseStoreBytes int64   `json:"sparse_store_bytes"`
	SizeRatio        float64 `json:"size_ratio"`
	NNZ              int64   `json:"nnz"`
	Density          float64 `json:"density"`

	// Matvec throughput over the pruned store, and the bit-identity
	// verdict against a dense ascending-j fold over the kept entries
	// (always asserted; the benchmark fails on any mismatch).
	MatVecReps     int     `json:"matvec_reps"`
	MatVecSeconds  float64 `json:"matvec_seconds"`
	MatVecsPerSec  float64 `json:"matvecs_per_sec"`
	EntriesPerSec  float64 `json:"entries_per_sec"`
	MatVecExact    bool    `json:"matvec_exact"`
	RatiosEnforced bool    `json:"ratios_enforced"`
	MinSizeRatio   float64 `json:"min_size_ratio"`
	MinBandSpeedup float64 `json:"min_band_speedup"`
}

// writeSparseJSON builds one dataset three ways — dense LDTS, pruned
// LDSS, banded LDSS — measures sizes, build times, and matvec
// throughput, and writes the machine-readable report. Matvec
// correctness against the dense fold is always asserted; the ≥10× size
// and ≥2× banded-build ratios are enforced once the matrix is large
// enough for the asymptotics to dominate the container overheads.
func writeSparseJSON(path string, scale int, stderr io.Writer) error {
	snps := max(512, 16384/scale)
	samples := max(256, 8192/scale)
	const (
		tile      = 128
		threshold = 0.2
	)
	band := snps / 16

	g, err := popsim.Mosaic(snps, samples, popsim.MosaicConfig{Seed: 5})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "ldbench-sparse")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rep := sparseReport{
		SNPs: snps, Samples: samples, Words: g.Words,
		TileSize: tile, Threshold: threshold, Band: band,
		MinSizeRatio: 10, MinBandSpeedup: 2,
		RatiosEnforced: snps >= sparseEnforceSNPs,
	}

	densePath := filepath.Join(dir, "g.ldts")
	start := time.Now()
	dres, err := ldstore.BuildFile(densePath, g, ldstore.BuildOptions{TileSize: tile})
	if err != nil {
		return fmt.Errorf("sparse bench: dense build: %w", err)
	}
	rep.DenseBuildSeconds = time.Since(start).Seconds()
	rep.DenseStoreBytes = dres.FileBytes

	sparsePath := filepath.Join(dir, "g.ldss")
	start = time.Now()
	sres, err := ldsparse.BuildFile(sparsePath, g, ldsparse.BuildOptions{
		TileSize: tile, Threshold: threshold,
	})
	if err != nil {
		return fmt.Errorf("sparse bench: sparse build: %w", err)
	}
	rep.SparseBuildSeconds = time.Since(start).Seconds()
	rep.SparseStoreBytes = sres.FileBytes
	rep.NNZ = sres.NNZ
	rep.SizeRatio = float64(rep.DenseStoreBytes) / float64(rep.SparseStoreBytes)
	rep.Density = float64(sres.NNZ) / (float64(snps) * float64(snps+1) / 2)

	bandedPath := filepath.Join(dir, "g.banded.ldss")
	start = time.Now()
	if _, err := ldsparse.BuildFile(bandedPath, g, ldsparse.BuildOptions{
		TileSize: tile, Threshold: threshold, Banded: true, Band: band,
	}); err != nil {
		return fmt.Errorf("sparse bench: banded build: %w", err)
	}
	rep.BandedBuildSeconds = time.Since(start).Seconds()
	rep.BandSpeedup = rep.SparseBuildSeconds / rep.BandedBuildSeconds

	sp, err := ldsparse.Open(sparsePath, ldsparse.Options{})
	if err != nil {
		return fmt.Errorf("sparse bench: built store unreadable: %w", err)
	}
	defer sp.Close()

	x := make([]float64, snps)
	for i := range x {
		x[i] = math.Sin(float64(2*i+1)) + 0.5
	}
	got, err := sp.MatVec(x)
	if err != nil {
		return fmt.Errorf("sparse bench: matvec: %w", err)
	}
	want, err := denseFoldMatVec(g, x, threshold)
	if err != nil {
		return err
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("sparse bench: matvec y[%d] = %v, dense fold %v — not bit-identical", i, got[i], want[i])
		}
	}
	rep.MatVecExact = true

	rep.MatVecReps = 20
	start = time.Now()
	for r := 0; r < rep.MatVecReps; r++ {
		if _, err := sp.MatVec(x); err != nil {
			return err
		}
	}
	rep.MatVecSeconds = time.Since(start).Seconds()
	rep.MatVecsPerSec = float64(rep.MatVecReps) / rep.MatVecSeconds
	// Each kept off-diagonal entry is visited twice (symmetry).
	rep.EntriesPerSec = float64(rep.MatVecReps) * 2 * float64(rep.NNZ) / rep.MatVecSeconds

	if rep.RatiosEnforced {
		if rep.SizeRatio < rep.MinSizeRatio {
			return fmt.Errorf("sparse bench: store-size ratio %.1f× below the required %.0f× (dense %d, sparse %d bytes)",
				rep.SizeRatio, rep.MinSizeRatio, rep.DenseStoreBytes, rep.SparseStoreBytes)
		}
		if rep.BandSpeedup < rep.MinBandSpeedup {
			return fmt.Errorf("sparse bench: banded build speedup %.2f× below the required %.0f× (full %.2fs, banded %.2fs)",
				rep.BandSpeedup, rep.MinBandSpeedup, rep.SparseBuildSeconds, rep.BandedBuildSeconds)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ldbench: sparse %d×%d τ=%g W=%d: size ratio %.1f× (%d → %d bytes), band speedup %.2f×, %.1f matvecs/s (%.1f Mentries/s); wrote %s\n",
		snps, samples, threshold, band, rep.SizeRatio, rep.DenseStoreBytes, rep.SparseStoreBytes,
		rep.BandSpeedup, rep.MatVecsPerSec, rep.EntriesPerSec/1e6, path)
	return nil
}

// denseFoldMatVec computes R·x by materializing the statistic rows with
// the same Exact triangular scan the sparse builder rides and folding
// the |v| ≥ τ entries in ascending-j order — the exact fold order the
// sparse matvec commits to, so the comparison can demand bit equality.
func denseFoldMatVec(g *bitmat.Matrix, x []float64, threshold float64) ([]float64, error) {
	n := g.SNPs
	dense := make([]float64, n*n)
	opt := core.StreamOptions{Triangular: true, Exact: true, StripeRows: 256}
	opt.Measures = core.MeasureR2
	err := core.Stream(g, opt, func(i, j0 int, row []float64) {
		for k, v := range row {
			dense[i*n+j0+k] = v
			dense[(j0+k)*n+i] = v
		}
	})
	if err != nil {
		return nil, fmt.Errorf("sparse bench: dense reference scan: %w", err)
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		var acc float64
		for j := 0; j < n; j++ {
			if v := dense[i*n+j]; math.Abs(v) >= threshold {
				acc += v * x[j]
			}
		}
		y[i] = acc
	}
	return y, nil
}
