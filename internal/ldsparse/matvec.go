package ldsparse

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Sparse operators over the CSR tile store. The contract that matters is
// determinism: MatVec must equal, to the exact float64 bit pattern, the
// serial reference
//
//	for i: for j = 0..n−1 ascending: if kept(i,j): y[i] += R[i][j]·x[j]
//
// so a cluster of shards, a single node, and a test oracle can never
// disagree by a ulp. Parallelism therefore follows output ownership: one
// worker owns each output tile band, and within a band every output
// row's contributions are folded in globally ascending source order —
// transposed tiles from bands above (their CSR rows ARE the ascending
// source indices), then the diagonal tile's symmetric walk, then direct
// tiles to the right. No reductions, no races, no reordering.

// MatVec computes y = R·x over the stored entries, treating pruned (and
// out-of-band) cells as zero and applying symmetry — each stored
// upper-triangle entry contributes both (i,j) and (j,i).
func (s *Store) MatVec(x []float64) ([]float64, error) {
	return s.MatVecRange(x, 0, s.SNPs())
}

// MatVecRange computes the output rows [r0, r1) of R·x: the full-length
// input vector goes in, the owned slice of y comes out. A cluster shard
// serving its row strip produces exactly the bytes the full MatVec would
// place there, because per-row fold order does not depend on the range.
func (s *Store) MatVecRange(x []float64, r0, r1 int) ([]float64, error) {
	n := s.SNPs()
	if len(x) != n {
		return nil, fmt.Errorf("ldsparse: vector of %d entries against %d SNPs", len(x), n)
	}
	if r0 < 0 || r1 <= r0 || r1 > n {
		return nil, fmt.Errorf("ldsparse: invalid row range [%d,%d) of %d SNPs", r0, r1, n)
	}
	t0 := time.Now()
	out := make([]float64, r1-r0)
	nt := s.TileSize()
	tb0, tb1 := r0/nt, (r1-1)/nt

	var (
		next    atomic.Int64
		visited atomic.Int64
		firstMu sync.Mutex
		first   error
	)
	next.Store(int64(tb0))
	workers := min(runtime.GOMAXPROCS(0), tb1-tb0+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				tb := int(next.Add(1) - 1)
				if tb > tb1 {
					return
				}
				nv, err := s.bandInto(tb, x, out, r0, r1)
				visited.Add(nv)
				if err != nil {
					firstMu.Lock()
					if first == nil {
						first = err
					}
					firstMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	stats.matVecs.Add(1)
	stats.matVecNanos.Add(uint64(time.Since(t0).Nanoseconds()))
	stats.entriesVisited.Add(uint64(visited.Load()))
	stats.bytesServed.Add(uint64(len(out)) * 8)
	return out, nil
}

// bandInto folds every contribution to output rows owned by tile band tb
// (clipped to [r0, r1)) into out, in globally ascending source-index
// order per output row. Returns the number of stored entries visited.
func (s *Store) bandInto(tb int, x, out []float64, r0, r1 int) (int64, error) {
	nt := s.TileSize()
	base := tb * nt
	var visited int64
	inRange := func(g int) bool { return g >= r0 && g < r1 }

	// Tiles above the diagonal block, consumed transposed: stored entry
	// (gi, gj) with gi in band ta < tb contributes out[gj] += v·x[gi].
	// CSR row-major order delivers, for each output row gj, its
	// contributions in ascending gi — and ta ascending keeps that order
	// global.
	for ta := 0; ta < tb; ta++ {
		t, err := s.Tile(ta, tb)
		if err != nil {
			return visited, err
		}
		aBase := ta * nt
		for r := 0; r < len(t.rowPtr)-1; r++ {
			xi := x[aBase+r]
			for k := t.rowPtr[r]; k < t.rowPtr[r+1]; k++ {
				if gj := base + int(t.cols[k]); inRange(gj) {
					out[gj-r0] += t.vals[k] * xi
				}
			}
			visited += int64(t.rowPtr[r+1] - t.rowPtr[r])
		}
	}

	// Diagonal tile, upper triangle stored once, walked row-major with a
	// symmetric scatter. For output row R this delivers the j < R
	// contributions first (entries (a, R) while scanning rows a < R,
	// ascending), then the j ≥ R ones (row R's own entries, columns
	// ascending) — exactly the serial reference's ascending-j fold.
	t, err := s.Tile(tb, tb)
	if err != nil {
		return visited, err
	}
	for r := 0; r < len(t.rowPtr)-1; r++ {
		gi := base + r
		giIn := inRange(gi)
		for k := t.rowPtr[r]; k < t.rowPtr[r+1]; k++ {
			gj := base + int(t.cols[k])
			v := t.vals[k]
			if giIn {
				out[gi-r0] += v * x[gj]
			}
			if gj != gi && inRange(gj) {
				out[gj-r0] += v * x[gi]
			}
		}
		visited += int64(t.rowPtr[r+1] - t.rowPtr[r])
	}

	// Tiles to the right, consumed directly: entry (gi, gj) with gj in
	// band tc > tb contributes out[gi] += v·x[gj], columns ascending
	// within each row and tc ascending across tiles.
	for tc := tb + 1; tc < s.Bands; tc++ {
		t, err := s.Tile(tb, tc)
		if err != nil {
			return visited, err
		}
		cBase := tc * nt
		for r := 0; r < len(t.rowPtr)-1; r++ {
			gi := base + r
			if !inRange(gi) {
				continue
			}
			acc := out[gi-r0]
			for k := t.rowPtr[r]; k < t.rowPtr[r+1]; k++ {
				acc += t.vals[k] * x[cBase+int(t.cols[k])]
			}
			out[gi-r0] = acc
			visited += int64(t.rowPtr[r+1] - t.rowPtr[r])
		}
	}
	return visited, nil
}

// Score computes the per-SNP score-statistic aggregate s[i] = Σ_j
// R[i][j]·z[j]² over stored entries — with R holding r², the Σ r²·χ²
// quantity GWAS summary-statistic pipelines consume (LD score regression
// terms, inflation diagnostics). It is exactly MatVec applied to the
// squared z vector, so it inherits MatVec's bit-determinism.
func (s *Store) Score(z []float64) ([]float64, error) {
	return s.ScoreRange(z, 0, s.SNPs())
}

// ScoreRange is Score restricted to output rows [r0, r1).
func (s *Store) ScoreRange(z []float64, r0, r1 int) ([]float64, error) {
	if len(z) != s.SNPs() {
		return nil, fmt.Errorf("ldsparse: vector of %d entries against %d SNPs", len(z), s.SNPs())
	}
	x := make([]float64, len(z))
	for i, v := range z {
		x[i] = v * v
	}
	out, err := s.MatVecRange(x, r0, r1)
	if err == nil {
		stats.scores.Add(1)
	}
	return out, err
}
