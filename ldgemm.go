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
// The subsystems are exposed as type aliases so the whole toolchain —
// baseline kernels, the ω-statistic sweep scan, population simulators,
// MSA/SNP-calling, file formats, the Section V SIMD model — is reachable
// from this one import.
package ldgemm

import (
	"io"

	"ldgemm/internal/assoc"
	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/core"
	"ldgemm/internal/ehh"
	"ldgemm/internal/ldmap"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/msa"
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
// Set Options.Ctx to bound the computation: the blocked drivers observe
// cancellation cooperatively at slab and phase boundaries, return the
// context's error, and recycle their packing arenas on the way out.
type Options = core.Options

// BlockConfig carries the GotoBLAS blocking parameters plus the parallel
// driver's knobs: Threads (worker count), ChunkTiles (work-queue
// granularity; 0 derives it from the workload), and Ctx for cooperative
// cancellation (nil runs to completion).
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

// StreamLD runs a striped scan, delivering one row of LD values at a time.
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

// Alignment is a gapped multiple-sequence alignment (the input to SNP
// calling, the paper's Section I workflow).
type Alignment = msa.Alignment

// CallOptions controls the SNP caller.
type CallOptions = msa.CallOptions

// CallResult is the SNP caller's output: genomic matrix, gap mask, and
// per-SNP metadata.
type CallResult = msa.CallResult

// CallSNPs identifies biallelic segregating alignment columns and encodes
// them into a bit-packed matrix plus validity mask.
func CallSNPs(aln *Alignment, ref []byte, opt CallOptions) (*CallResult, error) {
	return msa.CallSNPs(aln, ref, opt)
}

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

// TuneOptions bounds the blocking auto-tuner search; its Ctx field lets a
// caller abandon a long tuning sweep between measurements.
type TuneOptions = blis.TuneOptions

// TuneResult reports the winning blocked configuration.
type TuneResult = blis.TuneResult

// Tune searches cache block sizes (and, with TuneOptions.MaxThreads,
// threads × chunk size) for the host's micro-kernel, returning a
// BlockConfig to pass via Options.Blis.
func Tune(opt TuneOptions) (*TuneResult, error) { return blis.Tune(opt) }

// TuneProfile is the persistent, host-fingerprinted form of a tuned
// configuration (the -tune-profile file of the serving binaries).
type TuneProfile = blis.Profile

// ErrProfileStale reports a tune profile measured on different hardware
// or by an incompatible version; callers fall back to defaults.
var ErrProfileStale = blis.ErrProfileStale

// LoadTuneProfile reads and validates a saved tune profile; stale
// profiles (another host, another version) fail with ErrProfileStale.
func LoadTuneProfile(path string) (TuneProfile, error) { return blis.LoadProfile(path) }

// SaveTuneProfile persists a profile atomically with this host's
// fingerprint.
func SaveTuneProfile(path string, p TuneProfile) error { return blis.SaveProfile(path, p) }

// HostFingerprint identifies this host for tune-profile validation.
func HostFingerprint() string { return blis.HostFingerprint() }

// DriverStats is a snapshot of the blocked drivers' cumulative counters:
// completed and cancelled calls, C-cells×k-words of kernel work, wall
// time, packing-arena reuse, and the kernel variant and popcount engine
// the last call ran.
type DriverStats = blis.DriverStats

// KernelStats reads the process-wide driver counters — the same numbers
// ldserver exports on /debug/vars under "blis".
func KernelStats() DriverStats { return blis.ReadStats() }

// StoreStats is a snapshot of the tile-store serving counters: tiles and
// bytes read from disk, cache hits/misses/evictions, and bytes served.
type StoreStats = ldstore.Stats

// TileStoreStats reads the process-wide tile-store counters — the same
// numbers ldserver exports on /debug/vars under "store".
func TileStoreStats() StoreStats { return ldstore.ReadStats() }

// DecayOptions configures an LD decay profile.
type DecayOptions = ldmap.Options

// DecayProfile is a binned mean-r²-by-distance curve.
type DecayProfile = ldmap.Profile

// Decay computes the LD decay profile of a matrix.
func Decay(g *Matrix, opt DecayOptions) (*DecayProfile, error) { return ldmap.Decay(g, opt) }

// PhenotypeConfig parameterizes GWAS phenotype simulation.
type PhenotypeConfig = assoc.PhenotypeConfig

// CausalEffect is one causal SNP with its log-odds effect.
type CausalEffect = assoc.Effect

// Phenotypes is a simulated case/control assignment.
type Phenotypes = assoc.Phenotypes

// AssocResult is one SNP's association test result.
type AssocResult = assoc.SNPResult

// ClumpOptions configures LD-based clumping of association hits.
type ClumpOptions = assoc.ClumpOptions

// AssocClump is one clumped association region.
type AssocClump = assoc.Clump

// SimulatePhenotypes draws case/control phenotypes under a logistic model.
func SimulatePhenotypes(g *Matrix, cfg PhenotypeConfig) (*Phenotypes, error) {
	return assoc.Simulate(g, cfg)
}

// AssociationTest runs the per-SNP allelic χ² test, bit-parallel.
func AssociationTest(g *Matrix, ph *Phenotypes) ([]AssocResult, error) { return assoc.Test(g, ph) }

// ClumpAssociations groups significant hits into LD clumps.
func ClumpAssociations(g *Matrix, results []AssocResult, opt ClumpOptions) ([]AssocClump, error) {
	return assoc.ClumpResults(g, results, opt)
}

// TripleLDResult is one SNP triple's third-order disequilibrium.
type TripleLDResult = core.Triple

// TripleLD computes the three-locus disequilibrium D₃ of one triple.
func TripleLD(g *Matrix, i, j, k int) TripleLDResult { return core.TripleLD(g, i, j, k) }

// TripleScanOptions configures the windowed third-order scan.
type TripleScanOptions = core.TripleScanOptions

// TripleScan computes D₃ over all triples within a window span.
func TripleScan(g *Matrix, opt TripleScanOptions) ([]TripleLDResult, error) {
	return core.TripleScan(g, opt)
}

// GenoTable is a 3×3 joint genotype count table for unphased diploids.
type GenoTable = core.GenoTable

// EMPairLD estimates haplotype-frequency LD between two unphased diploid
// variants with Hill's (1974) EM algorithm.
func EMPairLD(g *GenotypeMatrix, i, j int) (Pair, error) { return core.EMPairLD(g, i, j) }

// EMMatrix estimates the haplotype r² matrix of unphased genotypes.
func EMMatrix(g *GenotypeMatrix) ([]float64, error) { return core.EMMatrix(g) }

// GenotypesFromHaplotypes pairs consecutive haplotypes into diploid
// genotypes (for the PLINK-like baseline, .bed export, or EM estimation).
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

// StructuredConfig parameterizes the Balding–Nichols structured-population
// generator (the admixture-LD confounder).
type StructuredConfig = popsim.StructuredConfig

// StructuredResult carries a structured-population matrix plus its deme
// assignment.
type StructuredResult = popsim.StructuredResult

// GenerateStructured simulates unlinked SNPs over diverged demes; any LD
// in the pooled sample is pure population structure.
func GenerateStructured(snps, samples int, cfg StructuredConfig) (*StructuredResult, error) {
	return popsim.Structured(snps, samples, cfg)
}

// DecayFit is a fitted hyperbolic LD decay model (Sved/Hill–Weir shape).
type DecayFit = ldmap.FitResult

// FitDecay estimates the decay model E[r²](d) = c0/(1+a·d) + floor from a
// profile.
func FitDecay(p *DecayProfile) (DecayFit, error) { return ldmap.Fit(p) }

// EHHScore is one SNP's integrated-haplotype-score result.
type EHHScore = ehh.Score

// EHHScanOptions configures an iHS scan.
type EHHScanOptions = ehh.ScanOptions

// EHHDecay traces extended haplotype homozygosity outward from a core SNP
// on the chosen allelic background.
func EHHDecay(g *Matrix, core int, derived bool, maxSpan int) (left, right []float64, err error) {
	return ehh.Decay(g, core, derived, maxSpan)
}

// IHS computes the unstandardized integrated haplotype score of one SNP.
func IHS(g *Matrix, core, maxSpan int) (EHHScore, error) { return ehh.IHS(g, core, maxSpan) }

// IHSScan computes unstandardized iHS for every common SNP.
func IHSScan(g *Matrix, opt EHHScanOptions) ([]EHHScore, error) { return ehh.Scan(g, opt) }

// StandardizeIHS converts iHS values to z-scores within frequency bins.
func StandardizeIHS(scores []EHHScore, bins int) ([]float64, error) {
	return ehh.Standardize(scores, bins)
}

// BootstrapOptions configures bootstrap confidence intervals.
type BootstrapOptions = core.BootstrapOptions

// Interval is a bootstrap percentile confidence interval.
type Interval = core.Interval

// BootstrapPair resamples haplotypes to put confidence intervals on the
// r², D, and D′ of one SNP pair.
func BootstrapPair(g *Matrix, i, j int, opt BootstrapOptions) (r2, d, dprime Interval, err error) {
	return core.BootstrapPair(g, i, j, opt)
}
