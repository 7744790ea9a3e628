// Package ldgemm computes linkage disequilibrium (LD) as dense linear
// algebra, reproducing "Efficient Computation of Linkage Disequilibria as
// Dense Linear Algebra Operations" (Alachiotis, Popovici, Low, 2016).
//
// The all-pairs haplotype-frequency matrix H = (1/Nseq)·GᵀG over a
// bit-packed genomic matrix G is a rank-k GEMM whose multiply-accumulate
// is AND + POPCNT + ADD on 64-bit words; this package drives it through a
// GotoBLAS/BLIS-style blocked kernel (packing, cache blocking, register
// micro-tiles, goroutine parallelism) and derives D, r², and D′ from the
// counts.
//
// Quick start:
//
//	g, _ := ldgemm.GenerateMosaic(10_000, 2_504, 1) // or load from ms/VCF/.bed
//	res, _ := ldgemm.LD(g, ldgemm.Options{Measures: ldgemm.MeasureR2})
//	fmt.Println(res.At(0, 1).R2)
//
// The subsystems the paper's evaluation and the serving tiers use are
// exposed as type aliases — the blocked driver and its counters, the
// ω-statistic sweep scan, the population simulator, gap-masked and
// finite-sites LD, Tanimoto fingerprints, pruning, blocks, significance
// and the file formats — so they are reachable from this one import.
package ldgemm

import (
	"io"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/core"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/omega"
	"ldgemm/internal/popsim"
	"ldgemm/internal/seqio"
	"ldgemm/internal/tanimoto"
)

// Matrix is a bit-packed binary genomic matrix: one column per SNP, one
// row (bit) per sample; set bits are derived alleles.
type Matrix = bitmat.Matrix

// Mask is a per-(SNP, sample) validity mask for alignment gaps and
// ambiguous characters (Section VII of the paper).
type Mask = bitmat.Mask

// GenotypeMatrix is the 2-bit packed diploid matrix used by the
// PLINK-like baseline and the .bed format.
type GenotypeMatrix = bitmat.GenotypeMatrix

// NewMatrix returns a zeroed snps×samples matrix.
func NewMatrix(snps, samples int) *Matrix { return bitmat.New(snps, samples) }

// FromRows builds a matrix from sample-major 0/1 rows.
func FromRows(rows [][]byte) (*Matrix, error) { return bitmat.FromRows(rows) }

// FromColumns builds a matrix from SNP-major 0/1 columns.
func FromColumns(cols [][]byte) (*Matrix, error) { return bitmat.FromColumns(cols) }

// NewMask returns an all-valid mask.
func NewMask(snps, samples int) *Mask { return bitmat.NewMask(snps, samples) }

// Options configures an LD computation (measures + blocking/threads).
// Set Options.Blis.Ctx to bound the computation: the blocked drivers observe
// cancellation cooperatively at slab and phase boundaries, return the
// context's error, and recycle their packing arenas on the way out.
type Options = core.Options

// BlockConfig carries the GotoBLAS blocking parameters plus the parallel
// driver's knobs: Threads (worker count) and Ctx for cooperative
// cancellation (nil runs to completion). Zero fields take the defaults.
type BlockConfig = blis.Config

// Measure flags select which statistics to materialize.
const (
	MeasureD      = core.MeasureD
	MeasureR2     = core.MeasureR2
	MeasureDPrime = core.MeasureDPrime
	KeepCounts    = core.KeepCounts
)

// Result is a materialized all-pairs LD matrix.
type Result = core.Result

// Pair holds every statistic for one SNP pair.
type Pair = core.Pair

// LD computes all-pairs LD within one genomic matrix via the blocked
// rank-k update (Eq. 4/5 and Section III of the paper).
func LD(g *Matrix, opt Options) (*Result, error) { return core.Matrix(g, opt) }

// CrossLD computes LD between the SNPs of two matrices — long-range LD and
// distant-gene association (the Figure 4 workload).
func CrossLD(a, b *Matrix, opt Options) (*Result, error) { return core.Cross(a, b, opt) }

// PairLD computes the statistics of a single SNP pair directly.
func PairLD(g *Matrix, i, j int) Pair { return core.PairLD(g, i, j) }

// MaskedLD computes gap-aware all-pairs LD (Section VII).
func MaskedLD(g *Matrix, mask *Mask, opt Options) (*Result, error) {
	return core.MaskedMatrix(g, mask, opt)
}

// AlleleFrequencies returns the per-SNP derived-allele frequencies (Eq. 3).
func AlleleFrequencies(g *Matrix) []float64 { return core.AlleleFrequencies(g) }

// StreamOptions configures a striped streaming scan for matrices too large
// to materialize n² outputs.
type StreamOptions = core.StreamOptions

// StreamLD runs a striped scan, delivering one row of LD values at a time:
// rows in order, one visit call at a time, not necessarily on the caller's
// goroutine (see core.Stream).
func StreamLD(g *Matrix, opt StreamOptions, visit func(i, j0 int, row []float64)) error {
	return core.Stream(g, opt, visit)
}

// SumR2 reduces r² over the upper triangle without materializing it.
func SumR2(g *Matrix, opt StreamOptions) (sum float64, pairs int64, err error) {
	return core.SumR2(g, opt)
}

// FSMMatrix is the finite-sites-model matrix (four nucleotide bit-planes).
type FSMMatrix = core.FSMMatrix

// FSMResult holds multi-allelic LD outputs (Zaykin's T statistic).
type FSMResult = core.FSMResult

// FromDNA builds an FSM matrix from nucleotide columns.
func FromDNA(cols [][]byte) (*FSMMatrix, error) { return core.FromDNA(cols) }

// FSMLD computes multi-allelic LD under the finite sites model
// (Section VII, Eq. 6).
func FSMLD(f *FSMMatrix, opt Options) (*FSMResult, error) { return core.FSMLD(f, opt) }

// OmegaConfig configures the ω-statistic selective-sweep scan.
type OmegaConfig = omega.Config

// OmegaPoint is one scan position with its maximized ω.
type OmegaPoint = omega.Point

// OmegaScan evaluates the Kim–Nielsen ω statistic on a grid.
func OmegaScan(g *Matrix, cfg OmegaConfig) ([]OmegaPoint, error) { return omega.Scan(g, cfg) }

// OmegaAt evaluates the maximized ω at one candidate boundary.
func OmegaAt(g *Matrix, center int, cfg OmegaConfig) (OmegaPoint, error) {
	return omega.At(g, center, cfg)
}

// MosaicConfig parameterizes the copying-model dataset generator.
type MosaicConfig = popsim.MosaicConfig

// GenerateMosaic simulates a genomic matrix with realistic LD structure
// and a neutral frequency spectrum.
func GenerateMosaic(snps, samples int, seed int64) (*Matrix, error) {
	return popsim.Mosaic(snps, samples, popsim.MosaicConfig{Seed: seed})
}

// SweepConfig parameterizes the selective-sweep overlay.
type SweepConfig = popsim.SweepConfig

// ApplySweep overwrites a matrix with a hitchhiking sweep signature.
func ApplySweep(m *Matrix, cfg SweepConfig) error { return popsim.ApplySweep(m, cfg) }

// MSReplicate is one replicate of a Hudson ms file.
type MSReplicate = seqio.MSReplicate

// ReadMS parses Hudson ms output; the first replicate's matrix is the
// usual input to LD.
func ReadMS(r io.Reader) ([]MSReplicate, error) { return seqio.ReadMS(r) }

// WriteMS writes replicates in ms format.
func WriteMS(w io.Writer, reps []MSReplicate) error { return seqio.WriteMS(w, reps) }

// ReadBinary loads the compact bit-matrix container.
func ReadBinary(r io.Reader) (*Matrix, error) { return seqio.ReadBinary(r) }

// WriteBinary stores a matrix in the compact container.
func WriteBinary(w io.Writer, m *Matrix) error { return seqio.WriteBinary(w, m) }

// Fingerprints is a set of binary chemical fingerprints (Section VII's
// cross-domain adaptation).
type Fingerprints = tanimoto.Fingerprints

// RandomFingerprints generates a random fingerprint set.
func RandomFingerprints(compounds, bits int, density float64, seed int64) (*Fingerprints, error) {
	return tanimoto.Random(compounds, bits, density, seed)
}

// FingerprintMatch is one similarity-search hit.
type FingerprintMatch = tanimoto.Match

// PruneOptions configures sliding-window LD pruning (the GWAS
// preprocessing step, PLINK's --indep-pairwise).
type PruneOptions = core.PruneOptions

// PruneResult reports surviving and removed SNPs.
type PruneResult = core.PruneResult

// Prune runs LD pruning over the matrix.
func Prune(g *Matrix, opt PruneOptions) (*PruneResult, error) { return core.Prune(g, opt) }

// BlockOptions configures haplotype-block detection.
type BlockOptions = core.BlockOptions

// Block is one detected haplotype block.
type Block = core.Block

// Blocks detects haplotype blocks (runs of SNPs in strong mutual |D′|).
func Blocks(g *Matrix, opt BlockOptions) ([]Block, error) { return core.Blocks(g, opt) }

// SignificanceOptions configures the linkage-equilibrium test scan.
type SignificanceOptions = core.SignificanceOptions

// SignificanceResult summarizes an equilibrium-test scan.
type SignificanceResult = core.SignificanceResult

// Significance tests every pair against the null of linkage equilibrium
// (χ² = Nseq·r², Bonferroni-corrected by default).
func Significance(g *Matrix, opt SignificanceOptions) (*SignificanceResult, error) {
	return core.Significance(g, opt)
}

// DriverStats is a snapshot of the blocked drivers' cumulative counters:
// completed and cancelled calls, C-cells×k-words of kernel work, wall
// time, packing-arena reuse, and the kernel variant and popcount engine
// the last call ran.
type DriverStats = blis.DriverStats

// KernelStats reads the process-wide driver counters — the same numbers
// ldserver exports on /debug/vars under "blis".
func KernelStats() DriverStats { return blis.ReadStats() }

// StoreStats is a snapshot of the tile-store serving counters: tiles and
// bytes checked on first touch, touches of checked tiles (cache hits) and
// first touches (misses), evictions (always 0), and bytes served.
type StoreStats = ldstore.Stats

// TileStoreStats reads the process-wide tile-store counters — the same
// numbers ldserver exports on /debug/vars under "store".
func TileStoreStats() StoreStats { return ldstore.ReadStats() }

// GenotypesFromHaplotypes pairs consecutive haplotypes into diploid
// genotypes (for the PLINK-like baseline or .bed export).
func GenotypesFromHaplotypes(m *Matrix) (*GenotypeMatrix, error) {
	return bitmat.FromHaplotypes(m)
}

// BandOptions configures a banded (windowed) LD scan.
type BandOptions = core.BandOptions

// BandedLD computes LD only for pairs within Band SNPs of each other —
// the linear-in-n workload for chromosome-scale inputs.
func BandedLD(g *Matrix, opt BandOptions, visit func(i, j0 int, row []float64)) error {
	return core.BandedStream(g, opt, visit)
}

// BandedSumR2 reduces r² over the band without materializing it.
func BandedSumR2(g *Matrix, opt BandOptions) (sum float64, pairs int64, err error) {
	return core.BandedSumR2(g, opt)
}

// PlinkFileset is a loaded PLINK .bed/.bim/.fam triple.
type PlinkFileset = seqio.PlinkFileset

// ReadPlinkFileset loads a PLINK binary fileset by any of its paths.
func ReadPlinkFileset(path string) (*PlinkFileset, error) { return seqio.ReadPlinkFileset(path) }

// WritePlinkFileset writes genotypes as a .bed/.bim/.fam triple.
func WritePlinkFileset(prefix string, g *GenotypeMatrix, bim []seqio.BimRecord, fam []seqio.FamRecord) error {
	return seqio.WritePlinkFileset(prefix, g, bim, fam)
}
