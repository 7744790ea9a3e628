// Package blis implements the GotoBLAS/BLIS layered blocking approach of
// Section III of the paper for the haplotype-count "GEMM": given genomic
// matrices whose columns are bit-packed SNPs, it computes
//
//	C[i,j] += Σ_l POPCNT(A.SNP(i)[l] & B.SNP(j)[l])
//
// using the canonical five-loop structure: the n dimension is partitioned
// into NC-wide column blocks (loop 5), the k dimension (sample words) into
// KC-deep slabs (loop 4, the rank-k updates that the paper notes genomic
// matrices already have the right shape for), the m dimension into MC-tall
// row blocks (loop 3), and each block-panel multiplication is swept by the
// register-blocked micro-kernel (loops 2 and 1). Fringe tiles are handled
// by zero-padding panels to full MR/NR and scattering through a scratch
// tile, so the micro-kernel never reads or writes out of bounds.
//
// Parallel execution uses a persistent worker pool per call: B-slab
// packing is a parallel phase, compute work is distributed as fine-grained
// tile-range chunks (cost-balanced under the SYRK triangle), successive
// KC slab groups are pipelined through a double buffer, and pack buffers
// are recycled across calls through a pooled arena. A call may stream
// many B panels past one packed A block (StripeEpilogue). See parallel.go
// and pool.go.
package blis

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"runtime"
	"sync"
	"unsafe"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/kernel"
	"ldgemm/internal/popcount"
)

// Config carries the cache blocking parameters and parallelism degree.
// MC and NC are in SNPs; KC is in 64-bit words of the sample dimension.
type Config struct {
	MC int // rows of A packed per L2-resident block
	NC int // columns of B packed per slab
	KC int // words per rank-k slab (KC*8 bytes of each SNP)
	// Kernel is the register-blocked micro-kernel of the plain driver;
	// the zero value means kernel.Default, the host-resolved default (the
	// AVX-512 VPOPCNTQ tile where the host runs it, the Go 4x4 elsewhere).
	// A kernel set here is the kernel that runs; how it counts — its own
	// loop, or the batched run-packed family around its shape — follows
	// from the kernel, the sample words and the host (dispatch.go).
	Kernel kernel.Kernel
	// Threads is the number of worker goroutines (GOMAXPROCS if 0).
	Threads int
	// Ctx, when non-nil, cancels an in-flight driver call cooperatively:
	// workers observe the cancellation between tile jobs and the driver
	// returns Ctx.Err() at the next phase or slab-group boundary, with
	// its packing arena still recycled. A nil Ctx (the zero value) means
	// the call runs to completion, exactly as before.
	Ctx context.Context
}

// DefaultConfig returns blocking parameters sized for common x86 cache
// hierarchies: the B micro-panel (KC·NR words) stays L1-resident, the
// packed A block (MC·KC words) L2-resident.
func DefaultConfig() Config {
	return Config{
		MC:     128,
		NC:     4096,
		KC:     256, // 2 KiB per SNP slab
		Kernel: kernel.Default,
	}
}

// PlainKernel returns the micro-kernel the plain (unmasked) driver runs
// for c — the one answer to "which kernel, which register tile" that
// normalize and core's SYRK mirror-ownership rule share: the
// Kernel set, or kernel.Default when it is unset.
func (c Config) PlainKernel() kernel.Kernel {
	if c.Kernel.Fn == nil {
		return kernel.Default
	}
	return c.Kernel
}

// normalize fills zero fields with defaults and validates the rest.
func (c Config) normalize() (Config, error) {
	d := DefaultConfig()
	if c.MC == 0 {
		c.MC = d.MC
	}
	if c.NC == 0 {
		c.NC = d.NC
	}
	if c.KC == 0 {
		c.KC = d.KC
	}
	c.Kernel = c.PlainKernel()
	if c.Threads == 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.MC < 1 || c.NC < 1 || c.KC < 1 || c.Threads < 1 {
		return c, fmt.Errorf("blis: invalid config %+v", c)
	}
	if c.Kernel.MR < 1 || c.Kernel.NR < 1 {
		return c, fmt.Errorf("blis: invalid kernel shape %dx%d", c.Kernel.MR, c.Kernel.NR)
	}
	return c, nil
}

// TileEpilogue is the fused-epilogue hook of GemmEpilogue/SyrkEpilogue
// (and their masked variants). The driver invokes it once per finished
// row run: mm ≤ MR consecutive output rows (one row of register tiles)
// spanning nn consecutive columns — every computed column of the
// scheduler job that owns them, typically hundreds to thousands — right
// after the job's final rank-k update, from the worker goroutine that
// computed it. tile addresses the finished counts with row stride ldt in
// C entries — for the plain kernel the cell (r, c) of the run is
// tile[r*ldt+c]; for the masked entry points each C entry is four uint32
// counts and cell (r, c, k) is tile[(r*ldt+c)*4+k]. (i0, j0) are the run's
// global output coordinates; i0 is a multiple of MR and j0 of NR (of
// MaskedTile's for the masked entry points). Under
// SYRK a run starts at its panel's first register tile with i0 < j0+NR,
// so the cells delivered are exactly those of the tiles the triangle
// sweep computes. Handing over whole rows rather than MR×NR tiles lets
// the hook hoist per-row state and write nn contiguous outputs; a hook
// must not assume nn ≤ NR. worker identifies the calling worker (0 ≤
// worker < Config.Threads) so implementations can use per-worker state
// without locking; distinct calls may touch the same output rows
// (different column ranges), so writes the hook performs must be disjoint
// by cell — which they are when it writes only its own run's cells, plus
// SYRK mirror cells owned by them.
//
// tile is only valid during the call: when the sample dimension fits one
// KC slab the run sits in a per-worker strip that the next panel's counts
// overwrite (see runJob).
type TileEpilogue func(worker int, tile []uint32, ldt, i0, j0, mm, nn int)

// RowRun calls f: a plain function is an Epilogue, net/http.HandlerFunc-
// style.
func (f TileEpilogue) RowRun(worker int, tile []uint32, ldt, i0, j0, mm, nn int) {
	f(worker, tile, ldt, i0, j0, mm, nn)
}

// Epilogue is what the fused entry points take: RowRun is the hook, with
// TileEpilogue's contract. An implementation that converts each run into a
// float64 matrix may also answer
//
//	Dest(i0, j0 int) (p unsafe.Pointer, rowBytes int)
//
// with the address it will write for the run starting at (i0, j0) — its
// first row's first cell, eight bytes a cell, the run's further rows
// rowBytes apart — or nil. The driver hands the answer to the micro-kernel
// as its destination hint (kernel.RowFunc), which prefetches those lines
// while it counts; nothing is read or written through it, so an epilogue
// that answers and the same epilogue wrapped so it does not produce the
// same bits.
type Epilogue interface {
	RowRun(worker int, tile []uint32, ldt, i0, j0, mm, nn int)
}

// destHinter is the optional half of Epilogue.
type destHinter interface {
	Dest(i0, j0 int) (p unsafe.Pointer, rowBytes int)
}

// materializer is an epilogue that may write a count matrix out in full
// (a masked call's run adapter without the caller's epilogue). When
// materializes says so, the driver runs it as any fused hook but adds
// nothing to the epilogue counters, which count what fusing saved.
type materializer interface {
	materializes() bool
}

// Gemm computes the full m×n count matrix between the SNPs of a and b:
// c[i*ldc+j] += dot(a.SNP(i), b.SNP(j)). The matrices must have the same
// sample count. c must have at least (a.SNPs-1)*ldc + b.SNPs entries.
func Gemm(cfg Config, a, b *bitmat.Matrix, c []uint32, ldc int) error {
	cfg, err := cfg.normalize()
	if err != nil {
		return err
	}
	if a.Samples != b.Samples {
		return fmt.Errorf("blis: sample mismatch %d vs %d", a.Samples, b.Samples)
	}
	if err := checkC(a.SNPs, b.SNPs, c, ldc); err != nil {
		return err
	}
	return drive(cfg, a, b, c, ldc, false)
}

// GemmEpilogue runs the blocked GEMM of Gemm fused: no count matrix is
// materialized — counts accumulate in pooled per-job scratch and every
// finished row run is handed to epi while cache-hot. Callers
// convert counts to their final representation (LD measures, summaries)
// inside epi; the dense m×n uint32 intermediate never exists. It is the
// one-panel StripeEpilogue.
func GemmEpilogue(cfg Config, a, b *bitmat.Matrix, epi Epilogue) error {
	return StripeEpilogue(cfg, a, nil, func(yield func(Panel, error) bool) {
		yield(Panel{B: b, Epi: epi}, nil)
	})
}

// Syrk computes the upper triangle (j >= i) of the symmetric count matrix
// GᵀG of a single genomic matrix — the rank-k update of Section III-B.
// Off-diagonal blocks strictly below the diagonal are skipped entirely;
// diagonal blocks are computed in full (their lower halves receive correct
// values as a by-product). With mirror set, the strict lower triangle is
// filled from the upper triangle afterwards.
func Syrk(cfg Config, a *bitmat.Matrix, c []uint32, ldc int, mirror bool) error {
	cfg, err := cfg.normalize()
	if err != nil {
		return err
	}
	if err := checkC(a.SNPs, a.SNPs, c, ldc); err != nil {
		return err
	}
	if err := drive(cfg, a, a, c, ldc, true); err != nil {
		return err
	}
	if mirror {
		mirrorThreads(c, a.SNPs, ldc, cfg.Threads)
	}
	return nil
}

// SyrkEpilogue runs the blocked SYRK of Syrk fused (see GemmEpilogue):
// epi receives, as row runs, every register tile the triangle sweep
// computes — tiles with i0 < j0+nr, i.e. the upper triangle plus the
// diagonal-crossing tiles, whose below-diagonal cells hold correct counts
// as a by-product.
// There is no count mirror; epilogues that need the lower triangle mirror
// their own converted values (bit-safe for the LD measures because the
// denominator grouping is symmetric under SNP exchange). It is the
// StripeEpilogue of a diagonal block alone.
func SyrkEpilogue(cfg Config, a *bitmat.Matrix, epi Epilogue) error {
	if epi == nil {
		return errNilEpilogue
	}
	return StripeEpilogue(cfg, a, epi, nil)
}

// Panel is one B panel of a stripe call and the epilogue its row runs go
// to.
type Panel struct {
	B   *bitmat.Matrix
	Epi Epilogue
}

var errNilEpilogue = errors.New("blis: nil epilogue")

// StripeEpilogue runs one stripe of a fused scan as one driver call: the
// SYRK of a's own block (as SyrkEpilogue) when diag is non-nil, then the
// GEMM of a against every panel panels yields, in order (as GemmEpilogue,
// each run handed to that panel's epilogue). The config is normalized
// once, the call takes one arena and one worker pool, which polls the
// context between jobs, and a's packed panels are kept from B panel to B panel, so A is packed
// once per (row block, slab group) — not once per panel. Each panel runs
// on the workers its own size earns (a small one on the caller alone).
//
// panels is pulled one panel at a time: the next is asked for only once
// every cell of the one before it has been handed to its epilogue, so an
// iterator may recycle a panel's buffer, and reuse its epilogue, as soon
// as yield returns. A panel yielded with an error, or whose sample count
// differs from a's, ends the call with that error; otherwise a call that
// returns nil has pulled every panel. panels may be nil. The call counts
// once in DriverStats.Calls.
func StripeEpilogue(cfg Config, a *bitmat.Matrix, diag Epilogue, panels iter.Seq2[Panel, error]) error {
	cfg, err := cfg.normalize()
	if err != nil {
		return err
	}
	k := cfg.Kernel
	runs, variant, engine := plainRoute(k, a.Words)
	stats.setVariant(variant, engine)
	return driveTiles(cfg, a.SNPs, a.Words, func(yield func(tilePanel, error) bool) {
		if diag != nil && !yield(tilePanel{ops: plainOps(k, runs, a, a), n: a.SNPs, syrk: true, epi: diag}, nil) {
			return
		}
		if panels == nil {
			return
		}
		for p, err := range panels {
			switch {
			case err != nil:
			case p.Epi == nil:
				err = errNilEpilogue
			case p.B.Samples != a.Samples:
				err = fmt.Errorf("blis: sample mismatch %d vs %d", a.Samples, p.B.Samples)
			}
			if err != nil {
				yield(tilePanel{}, err)
				return
			}
			if !yield(tilePanel{ops: plainOps(k, runs, a, p.B), n: p.B.SNPs, epi: p.Epi}, nil) {
				return
			}
		}
	})
}

// Mirror copies the strict upper triangle of an n×n matrix onto the strict
// lower triangle. Large matrices are mirrored in parallel (up to
// GOMAXPROCS goroutines); use Syrk's mirror argument to bound the
// parallelism by Config.Threads instead.
func Mirror(c []uint32, n, ldc int) {
	mirrorThreads(c, n, ldc, runtime.GOMAXPROCS(0))
}

func mirrorThreads(c []uint32, n, ldc, threads int) {
	forEachTriangleSpan(n, threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < i; j++ {
				c[i*ldc+j] = c[j*ldc+i]
			}
		}
	})
}

// mirrorParallelMin is the matrix order below which mirroring runs on the
// calling goroutine: an n² pointer-chase over less than ~a megabyte is
// cheaper than any fork/join.
const mirrorParallelMin = 512

// forEachTriangleSpan partitions rows [1, n) into at most parts contiguous
// spans of roughly equal strict-lower-triangle area (row i holds i cells,
// so span boundaries follow a square-root law) and runs fn on each span,
// concurrently when it helps.
func forEachTriangleSpan(n, parts int, fn func(lo, hi int)) {
	if n < 2 {
		return
	}
	if parts > n-1 {
		parts = n - 1
	}
	if parts <= 1 || n < mirrorParallelMin {
		fn(1, n)
		return
	}
	spans := make([][2]int, 0, parts)
	lo := 1
	for p := 1; p <= parts && lo < n; p++ {
		hi := n
		if p < parts {
			// Rows [1, hi) hold hi(hi−1)/2 ≈ hi²/2 of the n(n−1)/2 total;
			// give each span an equal share of the area.
			hi = isqrt(int64(n) * int64(n-1) * int64(p) / int64(parts))
			if hi <= lo {
				hi = lo + 1
			}
			if hi > n {
				hi = n
			}
		}
		spans = append(spans, [2]int{lo, hi})
		lo = hi
	}
	var wg sync.WaitGroup
	for _, sp := range spans[1:] {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(sp[0], sp[1])
	}
	fn(spans[0][0], spans[0][1])
	wg.Wait()
}

// isqrt returns ⌊√x⌋ for non-negative x.
func isqrt(x int64) int {
	r := int64(math.Sqrt(float64(x)))
	for r*r > x {
		r--
	}
	for (r+1)*(r+1) <= x {
		r++
	}
	return int(r)
}

func checkC(m, n int, c []uint32, ldc int) error {
	if ldc < n {
		return fmt.Errorf("blis: ldc %d < n %d", ldc, n)
	}
	if m > 0 && len(c) < (m-1)*ldc+n {
		return fmt.Errorf("blis: C has %d entries, need %d", len(c), (m-1)*ldc+n)
	}
	return nil
}

// drive is a one-panel call of the slab-pipelined parallel driver
// (parallel.go) into the caller's c, for the plain count kernel by the
// route plainRoute resolves. With syrk set, register tiles strictly below
// the diagonal are skipped and — when the column block spans the whole
// matrix and the register tile is square — the packed B slab doubles as
// the packed A panels.
func drive(cfg Config, a, b *bitmat.Matrix, c []uint32, ldc int, syrk bool) error {
	k := cfg.Kernel
	runs, variant, engine := plainRoute(k, a.Words)
	stats.setVariant(variant, engine)
	return driveTiles(cfg, a.SNPs, a.Words, onePanel(tilePanel{ops: plainOps(k, runs, a, b), n: b.SNPs, c: c, ldc: ldc, syrk: syrk}))
}

// plainOps is the plain kernel's tileOps on the route plainRoute resolved:
// the micro-kernel itself on interleaved panels, or the batched run-packed
// family around a Go kernel's shape (dispatch.go).
func plainOps(k kernel.Kernel, runs bool, a, b *bitmat.Matrix) tileOps {
	if runs {
		return runOps(k, a, b)
	}
	return interleavedOps(k, a, b)
}

// interleavedOps is the interleaved-panel tileOps: the register-blocked
// micro-kernel does the counting — one hardware POPCNT per word-pair in a
// Go kernel (the bit-exactness oracle everything else is tested against),
// one VPOPCNTQ per k.Lanes word-pairs in the vector tile.
func interleavedOps(k kernel.Kernel, a, b *bitmat.Matrix) tileOps {
	mr, nr := k.MR, k.NR
	row := k.Row // captured alone: a closure over k copies all 64 bytes of it, per call
	ops := tileOps{
		mr: mr, nr: nr, popcFold: max(1, k.Lanes),
		shareable: a == b && mr == nr,
		packA: func(dst []uint64, snp, count, pc, kc int) {
			kernel.PackPanel(dst, a, snp, count, mr, pc, kc)
		},
		packB: func(dst []uint64, snp, count, pc, kc int) {
			kernel.PackPanel(dst, b, snp, count, nr, pc, kc)
		},
		fringe: tileFringe(k.Fn, nr),
	}
	if row != nil {
		ops.row = func(kc int, aw, bw []uint64, bstride, nt int, c []uint32, i0, j0, ldc int, acc bool, pf unsafe.Pointer, pfRowBytes int) {
			row(kc, aw, bw, bstride, nt, c[i0*ldc+j0:], ldc, acc, pf, pfRowBytes)
		}
	} else {
		ops.row = tileRow(k.Fn, mr, nr)
	}
	return ops
}

// Reference computes the count matrix with plain per-pair word loops; it is
// the oracle the blocked drivers are tested against and the "unblocked
// vector kernel" the ablation benchmarks compare with.
func Reference(a, b *bitmat.Matrix, c []uint32, ldc int) error {
	if a.Samples != b.Samples {
		return fmt.Errorf("blis: sample mismatch %d vs %d", a.Samples, b.Samples)
	}
	if err := checkC(a.SNPs, b.SNPs, c, ldc); err != nil {
		return err
	}
	for i := 0; i < a.SNPs; i++ {
		ai := a.SNP(i)
		for j := 0; j < b.SNPs; j++ {
			bj := b.SNP(j)
			var n uint32
			for w := range ai {
				n += popcount.Count(ai[w] & bj[w])
			}
			c[i*ldc+j] += n
		}
	}
	return nil
}
