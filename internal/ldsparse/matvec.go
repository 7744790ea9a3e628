package ldsparse

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"ldgemm/internal/bufpool"
)

// Sparse operators over the CSR tile store. The contract that matters is
// determinism: MatVec must equal, to the exact float64 bit pattern, the
// serial reference
//
//	for i: for j = 0..n−1 ascending: if kept(i,j): y[i] += R[i][j]·x[j]
//
// so a cluster of shards, a single node, and a test oracle can never
// disagree by a ulp. The operators run over a layout made for that loop,
// not over the tiles: a row-CSR whose row i lists every kept (i, j) — the
// stored upper-triangle cells and their mirrors — with j strictly
// ascending, and one fold, acc = 0; acc += val[k]·x[col[k]] along the row,
// which is the reference's sequence of float operations. Rows are
// independent, so splitting them across workers reorders nothing.
//
// A store whose rows fit residentBudget is laid out once, at open, and
// every call folds resident memory. Above it the same assembler lays out
// one output tile band at a time inside each call for the same fold; the
// tile LRU serves that case and Lookup. DESIGN.md ("Sparse operators").

// residentBudget bounds the row-CSR a store keeps for its lifetime. It is
// a constant: only SetResidentBudgetForTest writes it.
var residentBudget int64 = 256 << 20

// foldGrain is the fewest row-CSR cells worth a goroutine of their own
// (about 90 µs of folding); a smaller fold runs inline on the caller.
const foldGrain = 1 << 16

// rowCSR is the symmetric expansion of some tile bands' rows, from row0.
type rowCSR struct {
	row0   int
	ptr    []uint32 // row i's cells are col/val[ptr[i−row0]:ptr[i−row0+1]]
	stored []uint32 // prefix count of rows' stored (upper-triangle) entries
	col    []uint32 // global source index j, strictly ascending per row
	val    []float64
}

// reach is how many tile bands off the diagonal a non-empty tile can sit.
func (s *Store) reach() int {
	if nt := s.TileSize(); s.Banded() {
		return min(s.Bands, (s.Band()+nt-1)/nt)
	}
	return s.Bands
}

// assemble lays out the rows of tile bands [tb0, tb1) from the non-empty
// tiles that touch them, each through Reader.Tile's CRC and decode checks.
// Tiles are visited in index order and each cell appended at its row's
// cursor, which leaves every row ascending in j: mirrors from the tiles
// above arrive by ascending tile and row, the diagonal tile delivers row
// i's mirrors before row i's own cells, the tiles to the right follow.
func (s *Store) assemble(tb0, tb1 int) (*rowCSR, error) {
	nt, reach := s.TileSize(), s.reach()
	row0, row1 := tb0*nt, min(tb1*nt, s.SNPs())
	type piece struct {
		t    *csrTile
		a, b int // global row and column of the tile's first cell
	}
	var pieces []piece
	for ti := max(0, tb0-reach); ti < tb1; ti++ {
		lo, hi := ti, min(s.Bands-1, ti+reach)
		if ti < tb0 { // above the bands: only its tiles in their columns
			lo, hi = tb0, min(hi, tb1-1)
		}
		for tj := lo; tj <= hi; tj++ {
			if s.Entry(ti, tj).Aux == 0 {
				continue
			}
			t, err := s.Tile(ti, tj)
			if err != nil {
				return nil, err
			}
			pieces = append(pieces, piece{t, ti * nt, tj * nt})
		}
	}
	// each walks the cells the pieces contribute to the bands' rows.
	each := func(emit func(row, col int, v float64, mirror bool)) {
		for _, p := range pieces {
			direct, mirror := p.a >= row0, p.b < row1 // its rows, its columns are the bands'
			for r := 0; r+1 < len(p.t.rowPtr); r++ {
				gi := p.a + r
				for k := p.t.rowPtr[r]; k < p.t.rowPtr[r+1]; k++ {
					gj, v := p.b+int(p.t.cols[k]), p.t.vals[k]
					if direct {
						emit(gi-row0, gj, v, false)
					}
					if mirror && gj != gi {
						emit(gj-row0, gi, v, true)
					}
				}
			}
		}
	}
	rows := row1 - row0
	c := &rowCSR{row0: row0, ptr: make([]uint32, rows+1), stored: make([]uint32, rows+1)}
	var cells uint64
	each(func(row, _ int, _ float64, mirror bool) {
		c.ptr[row+1]++
		if !mirror {
			c.stored[row+1]++
		}
		cells++
	})
	if cells > math.MaxUint32 {
		return nil, fmt.Errorf("ldsparse: tile bands [%d,%d) hold %d cells, above the row layout's 2³² limit", tb0, tb1, cells)
	}
	for i := 0; i < rows; i++ {
		c.ptr[i+1] += c.ptr[i]
		c.stored[i+1] += c.stored[i]
	}
	c.col, c.val = make([]uint32, cells), make([]float64, cells)
	cursor := append([]uint32(nil), c.ptr[:rows]...)
	each(func(row, col int, v float64, _ bool) {
		k := cursor[row]
		c.col[k], c.val[k] = uint32(col), v
		cursor[row] = k + 1
	})
	return c, nil
}

// fold writes rows [lo, hi) of R·x to out, out[0] being row lo, and counts
// the rows' stored entries as visited.
func (c *rowCSR) fold(x, out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		k0, k1 := c.ptr[i-c.row0], c.ptr[i-c.row0+1]
		val := c.val[k0:k1]
		var acc float64
		for k, j := range c.col[k0:k1] {
			acc += val[k] * x[j]
		}
		out[i-lo] = acc
	}
	stats.entriesVisited.Add(uint64(c.stored[hi-c.row0] - c.stored[lo-c.row0]))
}

// split runs f over [lo, hi) cut into `parts` contiguous ranges, one
// goroutine each, and returns the first error; one part runs inline.
func split(lo, hi, parts int, f func(lo, hi int) error) error {
	if parts <= 1 {
		return f(lo, hi)
	}
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[p] = f(lo+(hi-lo)*p/parts, lo+(hi-lo)*(p+1)/parts)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

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
// The output is taken from bufpool.Floats, as core's and ldstore's results
// are: a caller done with it may hand it back there, once.
func (s *Store) MatVecRange(x []float64, r0, r1 int) ([]float64, error) {
	n := s.SNPs()
	if len(x) != n {
		return nil, fmt.Errorf("ldsparse: vector of %d entries against %d SNPs", len(x), n)
	}
	if r0 < 0 || r1 <= r0 || r1 > n {
		return nil, fmt.Errorf("ldsparse: invalid row range [%d,%d) of %d SNPs", r0, r1, n)
	}
	t0 := time.Now()
	out := bufpool.Floats.Get(r1 - r0) // every row is folded into it
	if c := s.rows; c != nil {
		if parts := min(runtime.GOMAXPROCS(0), int(c.ptr[r1]-c.ptr[r0])/foldGrain); parts <= 1 {
			c.fold(x, out, r0, r1)
		} else {
			split(r0, r1, parts, func(lo, hi int) error {
				c.fold(x, out[lo-r0:hi-r0], lo, hi)
				return nil
			})
		}
	} else {
		nt := s.TileSize()
		tb0, tb1 := r0/nt, (r1-1)/nt+1
		err := split(tb0, tb1, min(runtime.GOMAXPROCS(0), tb1-tb0), func(a, b int) error {
			for tb := a; tb < b; tb++ {
				c, err := s.assemble(tb, tb+1)
				if err != nil {
					return err
				}
				lo, hi := max(r0, tb*nt), min(r1, (tb+1)*nt)
				c.fold(x, out[lo-r0:hi-r0], lo, hi)
			}
			return nil
		})
		if err != nil {
			bufpool.Floats.Put(out)
			return nil, err
		}
	}
	stats.matVecs.Add(1)
	stats.matVecNanos.Add(uint64(time.Since(t0).Nanoseconds()))
	stats.bytesServed.Add(uint64(len(out)) * 8)
	return out, nil
}

// Score computes the per-SNP score-statistic aggregate s[i] = Σ_j
// R[i][j]·z[j]² over stored entries — with R holding r², the Σ r²·χ²
// quantity GWAS summary-statistic pipelines consume (LD score regression
// terms, inflation diagnostics). It is exactly MatVec applied to the
// squared z vector, so it inherits MatVec's bit-determinism.
func (s *Store) Score(z []float64) ([]float64, error) {
	return s.ScoreRange(z, 0, s.SNPs())
}

// ScoreRange is Score restricted to output rows [r0, r1), its output from
// bufpool.Floats as MatVecRange's is.
func (s *Store) ScoreRange(z []float64, r0, r1 int) ([]float64, error) {
	if len(z) != s.SNPs() {
		return nil, fmt.Errorf("ldsparse: vector of %d entries against %d SNPs", len(z), s.SNPs())
	}
	x := bufpool.Floats.Get(len(z)) // the z² scratch
	defer bufpool.Floats.Put(x)
	for i, v := range z {
		x[i] = v * v
	}
	out, err := s.MatVecRange(x, r0, r1)
	if err == nil {
		stats.scores.Add(1)
	}
	return out, err
}
