package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"ldgemm/internal/bitmat"
)

// countsRowCase is one row run through the counts epilogue: row gi < tile
// of a stripe at SNP 0 whose tiles are tile wide, columns [j, j+len(cnt)), over
// the frequencies p of SNPs 0 … j+len(cnt)−1, for samples sequences. Tile
// k's maximum starts at start[k], or −Inf past the end of start (or with
// none), as a stripe's maxima do.
type countsRowCase struct {
	samples, tile, gi, j int
	cnt                  []uint32
	p                    []float64
	start                []float64
}

// startMax returns tile k's starting maximum.
func (rc countsRowCase) startMax(k int) float64 {
	if k < len(rc.start) {
		return rc.start[k]
	}
	return math.Inf(-1)
}

// countAt reads the count of stripe row r, column col, through the
// stripe's tile layout.
func countAt(c *CountStripe, r, col int) uint32 {
	k := col / c.TileCols
	off, stride := c.Tile(k)
	at := off + r*stride + col - k*c.TileCols
	if len(c.C32) > 0 {
		return c.C32[at]
	}
	return uint32(c.C16[at])
}

// run stores the run through countsEpilogue.row into a stripe of its own
// and returns the stored row (widened) and the stripe's tile maxima.
func (rc countsRowCase) run() ([]uint32, []float64) {
	width := rc.j + len(rc.cnt)
	sc := &scan{stripe: rc.tile, n: width}
	c := &CountStripe{Rows: rc.gi + 1, Width: width, TileCols: rc.tile}
	wide := CountBytes(rc.samples) > 2
	if wide {
		c.C32 = make([]uint32, c.Rows*width)
	} else {
		c.C16 = make([]uint16, c.Rows*width)
	}
	c.TileMax = make([]float64, (width+rc.tile-1)/rc.tile)
	for k := range c.TileMax {
		c.TileMax[k] = rc.startMax(k)
	}
	e := &countsEpilogue{conv: newStripeScan(StreamOptions{Exact: true}, rc.p, rc.samples), sc: sc, c: c, wide: wide}
	if len(rc.cnt) > 0 { // RowRun never runs an empty one
		e.row(rc.cnt, rc.gi, rc.j)
	}
	got := make([]uint32, len(rc.cnt))
	for x := range got {
		got[x] = countAt(c, rc.gi, rc.j+x)
	}
	return got, c.TileMax
}

// reference is what run must return, cell by cell: each count as the
// stripe's width holds it, and per tile the fold, from its starting
// maximum, of the scalarR2Exact values over the run's cells in it off the
// diagonal — a value replaces the maximum only when greater.
func (rc countsRowCase) reference() ([]uint32, []float64) {
	width := rc.j + len(rc.cnt)
	tab := varTable(rc.p)
	var inv float64
	if rc.samples > 0 {
		inv = 1 / float64(rc.samples)
	}
	counts := make([]uint32, len(rc.cnt))
	maxes := make([]float64, (width+rc.tile-1)/rc.tile)
	for k := range maxes {
		maxes[k] = rc.startMax(k)
	}
	for x, n := range rc.cnt {
		counts[x] = n
		if CountBytes(rc.samples) == 2 {
			counts[x] = uint32(uint16(n))
		}
		col := rc.j + x
		if col == rc.gi {
			continue
		}
		var v [1]float64
		scalarR2Exact(v[:], rc.cnt[x:x+1], rc.p[col:col+1], tab[col:col+1], inv, rc.p[rc.gi], tab[rc.gi])
		if k := col / rc.tile; v[0] > maxes[k] {
			maxes[k] = v[0]
		}
	}
	return counts, maxes
}

// checkCountsRow holds the run to its reference on the kernels' path and
// on the Go loops alone: the same counts, and the same bits for every tile
// maximum.
func checkCountsRow(t testing.TB, what string, rc countsRowCase) {
	t.Helper()
	wantC, wantM := rc.reference()
	restore := vectorRows
	defer func() { vectorRows = restore }()
	for _, vector := range []bool{true, false} {
		vectorRows = vector && restore
		gotC, gotM := rc.run()
		for x := range wantC {
			if gotC[x] != wantC[x] {
				t.Fatalf("%s vector=%v (N %d, len %d): count %d stored as %d, want %d", what, vectorRows, rc.samples, len(rc.cnt), x, gotC[x], wantC[x])
			}
		}
		for k := range wantM {
			if math.Float64bits(gotM[k]) != math.Float64bits(wantM[k]) {
				t.Fatalf("%s vector=%v (N %d, row %d, cols %d+%d, tile %d): tile %d maximum %016x (%g), want %016x (%g)",
					what, vectorRows, rc.samples, rc.gi, rc.j, len(rc.cnt), rc.tile, k,
					math.Float64bits(gotM[k]), gotM[k], math.Float64bits(wantM[k]), wantM[k])
			}
		}
	}
}

// FuzzCountsRow: the counts epilogue's fused narrow-and-maximum kernel
// against the Go loop, through the epilogue's row, on any counts ≤ N, any
// frequency bits, N up to 65 535, any row length, tile width and start —
// so runs cross tile edges and start at, before or past the diagonal — and
// any starting maximum per tile: −Inf, +0, a subnormal, 2⁻¹⁰²² (the least
// maximum the kernel's divide skip runs against) or any bits.
func FuzzCountsRow(f *testing.F) {
	seed := func(samples uint16, tile, gi, j, kind byte, bits uint64, cells int) []byte {
		b := binary.BigEndian.AppendUint16(nil, samples)
		b = append(b, tile, gi, j, kind)
		b = binary.BigEndian.AppendUint64(b, bits)
		for c := range cells {
			b = binary.BigEndian.AppendUint16(b, uint16(c*977))
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(float64(c%13)/13))
		}
		return b
	}
	f.Add(seed(2048, 8, 0, 0, 0, 0, 40))
	f.Add(seed(65535, 16, 5, 3, 4, math.Float64bits(0.25), 37))
	f.Add(seed(1000, 3, 9, 9, 2, 12345, 19))
	f.Add(seed(1, 1, 0, 4, 3, 0, 9))
	f.Add(seed(2048, 64, 0, 1, 4, math.Float64bits(0.01), 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		const head = 14
		if len(data) < head {
			return
		}
		rc := countsRowCase{samples: int(binary.BigEndian.Uint16(data)), tile: 1 + int(data[2])%64}
		rc.j = int(data[4]) % 64
		// A run starts at its row's diagonal or right of it, and a stripe's
		// rows are its diagonal block's.
		rc.gi = min(int(data[3])%64, rc.j, rc.tile-1)
		cells := min((len(data)-head)/10, 512)
		rc.p = make([]float64, rc.j+cells)
		for i := range rc.j {
			rc.p[i] = float64(i) / 64
		}
		rc.cnt = make([]uint32, cells)
		for c := range rc.cnt {
			cell := data[head+10*c:]
			rc.cnt[c] = uint32(binary.BigEndian.Uint16(cell)) % uint32(rc.samples+1)
			rc.p[rc.j+c] = math.Float64frombits(binary.BigEndian.Uint64(cell[2:]))
		}
		bits := binary.BigEndian.Uint64(data[6:])
		rc.start = make([]float64, (rc.j+cells+rc.tile-1)/rc.tile)
		for k := range rc.start {
			switch (int(data[5]) + k) % 5 {
			case 0:
				rc.start[k] = math.Inf(-1)
			case 1:
				rc.start[k] = 0
			case 2:
				rc.start[k] = math.Float64frombits((bits+uint64(k))&(1<<52-1) | 1)
			case 3:
				rc.start[k] = 0x1p-1022
			default:
				rc.start[k] = math.Float64frombits(bits + uint64(k))
			}
		}
		checkCountsRow(t, "fuzz", rc)
	})
}

// TestCountsRowEdges: the counts epilogue's row at its edges, on the
// kernels' path and the Go loops alone — every run length 0–40 from its
// diagonal and from past it, across tile edges; a monomorphic column, whose
// r² is the +0 of a zero denominator; N = 65 535 with counts at N (the
// widest that narrows) and N = 65 536 (the first kept at 32 bits); a run
// whose diagonal cell, r² = 1, must not enter its tile's maximum; and the
// kernel's divide skip at its edges: an r² equal to the running maximum and
// one ulp above it, r² just inside and just outside the skip's margin,
// lanes with den ≤ 0 or a NaN frequency after a positive maximum, and a
// subnormal maximum, under which nothing is skipped.
func TestCountsRowEdges(t *testing.T) {
	row := func(samples, tile, gi, j, n int) countsRowCase {
		rc := countsRowCase{samples: samples, tile: tile, gi: gi, j: j, cnt: make([]uint32, n), p: make([]float64, j+n)}
		for i := range rc.p {
			rc.p[i] = float64(1+i*7%19) / 21
		}
		for c := range rc.cnt {
			rc.cnt[c] = uint32((c*2654435761 + 12345) % (samples + 1))
		}
		return rc
	}
	for _, samples := range []int{1000, math.MaxUint16, math.MaxUint16 + 1} {
		for n := 0; n <= 40; n++ {
			for _, start := range [][2]int{{0, 0}, {3, 3}, {2, 5}} {
				rc := row(samples, 16, start[0], start[1], n)
				checkCountsRow(t, fmt.Sprintf("N=%d len=%d row=%d col=%d", samples, n, start[0], start[1]), rc)
			}
		}
	}

	mono := row(2048, 8, 0, 0, 24)
	mono.p[11], mono.cnt[11] = 0, 0
	mono.p[3], mono.cnt[3] = 1, 2048
	checkCountsRow(t, "monomorphic columns", mono)

	full := row(math.MaxUint16, 8, 1, 1, 33)
	for c := range full.cnt {
		full.cnt[c] = math.MaxUint16
	}
	checkCountsRow(t, "counts at N = 65 535", full)
	wide := row(math.MaxUint16+1, 8, 1, 1, 33)
	for c := range wide.cnt {
		wide.cnt[c] = math.MaxUint16 + 1
	}
	checkCountsRow(t, "counts at N = 65 536", wide)

	// Row 2's diagonal: count 512 of N 1024 at p = ½ is r² = 1; every other
	// cell is independent (r² = +0).
	diag := countsRowCase{samples: 1024, tile: 16, gi: 2, j: 2, cnt: make([]uint32, 20), p: make([]float64, 22)}
	for i := range diag.p {
		diag.p[i] = 0.5
	}
	for c := range diag.cnt {
		diag.cnt[c] = 256
	}
	diag.cnt[0] = 512
	checkCountsRow(t, "diagonal", diag)
	if _, maxes := diag.run(); maxes[0] != 0 || maxes[1] != 0 {
		t.Fatalf("diagonal run: tile maxima %v, want [0 0]: the diagonal's r² = 1 entered one", maxes)
	}

	// The kernel's divide skip against the tile's running maximum. Row 0
	// against 24 cells, three groups of eight, at p = ½ and N = 1024: count
	// 256 is independent (r² = +0), count 300 has r² = v. Each case starts
	// the maximum somewhere against v and names the maximum it must end at.
	skipRow := func(start float64, hot ...int) countsRowCase {
		rc := countsRowCase{samples: 1024, tile: 32, gi: 0, j: 1, cnt: make([]uint32, 24), p: make([]float64, 25), start: []float64{start}}
		for i := range rc.p {
			rc.p[i] = 0.5
		}
		for c := range rc.cnt {
			rc.cnt[c] = 256
		}
		for _, c := range hot {
			rc.cnt[c] = 300
		}
		return rc
	}
	_, m := skipRow(math.Inf(-1), 10).reference()
	v := m[0]
	denZero := skipRow(v/2, 10)
	denZero.p[1+3], denZero.p[1+5], denZero.p[1+17], denZero.p[1+20] = 0, math.NaN(), 1, math.NaN()
	denAtMax := skipRow(v)
	denAtMax.p[1+3], denAtMax.p[1+5], denAtMax.p[1+17], denAtMax.p[1+20] = 0, math.NaN(), 1, math.NaN()
	const subnormal = 3 * 0x1p-1074
	for _, c := range []struct {
		what string
		rc   countsRowCase
		want float64
	}{
		{"r² equal to the maximum", skipRow(v, 10), v},
		{"r² one ulp above the maximum", skipRow(math.Nextafter(v, 0), 10), v},
		{"r² just inside the 1−2⁻⁴⁰ margin", skipRow(v*(1+0x1p-41), 10), v * (1 + 0x1p-41)},
		{"r² just outside the 1−2⁻⁴⁰ margin", skipRow(v*(1+0x1p-39), 10), v * (1 + 0x1p-39)},
		{"den ≤ 0 and NaN frequencies after a positive maximum", denZero, v},
		{"den ≤ 0 and NaN frequencies beside skippable lanes", denAtMax, v},
		{"a subnormal maximum", skipRow(subnormal), subnormal},
		{"a subnormal maximum raised", skipRow(subnormal, 20), v},
	} {
		checkCountsRow(t, c.what, c.rc)
		if _, got := c.rc.run(); math.Float64bits(got[0]) != math.Float64bits(c.want) {
			t.Fatalf("%s: maximum %v, want %v", c.what, got[0], c.want)
		}
	}
}

// countCollector is a CountSink that checks every stripe it is handed
// against Matrix's counts and r², and the stripe contract: stripes in
// order, and their storage handed back and forth. It runs on the scan's
// workers, so it reports with Errorf, never Fatalf.
type countCollector struct {
	t          *testing.T
	res        *Result
	tile, next int
	bufs       [2]CountStripe
	taken      int
	alleles    []uint32
	stripes    int
}

func (c *countCollector) Alleles(a []uint32) { c.alleles = append([]uint32(nil), a...) }

func (c *countCollector) CountBuffer() *CountStripe {
	c.taken++
	return &c.bufs[c.taken%2]
}

func (c *countCollector) CountDone(s *CountStripe) {
	c.stripes++
	n := c.res.SNPs
	if s.I0 != c.next {
		c.t.Errorf("stripe at row %d, want %d", s.I0, c.next)
	}
	c.next = s.I0 + s.Rows
	if s.Width != n-s.I0 || len(s.TileMax) != (s.Width+c.tile-1)/c.tile {
		c.t.Errorf("stripe %d: width %d with %d tiles", s.I0, s.Width, len(s.TileMax))
		return
	}
	want := make([]float64, len(s.TileMax))
	for k := range want {
		want[k] = math.Inf(-1)
	}
	for r := 0; r < s.Rows; r++ {
		gi := s.I0 + r
		for col := r; col < s.Width; col++ {
			gj := s.I0 + col
			if got, w := countAt(s, r, col), c.res.Counts[gi*n+gj]; got != w {
				c.t.Errorf("count (%d,%d) = %d, want %d", gi, gj, got, w)
				return
			}
			if v := c.res.R2[gi*n+gj]; col != r && v > want[col/c.tile] {
				want[col/c.tile] = v
			}
		}
	}
	for k := range want {
		if math.Float64bits(s.TileMax[k]) != math.Float64bits(want[k]) {
			c.t.Errorf("stripe %d tile %d: maximum %v, Matrix's r² gives %v", s.I0, k, s.TileMax[k], want[k])
		}
	}
}

// TestCountScanMatchesMatrix: a counts scan hands over exactly Matrix's
// joint counts (KeepCounts) from each row's diagonal on, and every tile's
// maximum off-diagonal exact r² bit for bit as Matrix computes it — at
// N ≤ 65 535 (uint16) and N = 65 536 (uint32); over the whole triangle and
// a row window; 1, 2 and 4 stripes in flight; a resident matrix and a
// windowed .ldbm; the kernels' path and the Go loops alone. The allele
// counts it hands over are the bit matrix's.
func TestCountScanMatchesMatrix(t *testing.T) {
	restore := vectorRows
	defer func() { vectorRows = restore }()
	for _, shape := range []struct{ snps, samples int }{{61, 83}, {29, 65536}} {
		g := streamMatrix(t, shape.snps, shape.samples, 11)
		res, err := Matrix(g, Options{Measures: MeasureR2 | KeepCounts})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "g.ldbm")
		if err := bitmat.WriteFile(path, g); err != nil {
			t.Fatal(err)
		}
		file, err := bitmat.OpenFile(path, false)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		for srcName, src := range map[string]bitmat.Source{"mem": bitmat.NewMemSource(g), "windowed": file} {
			for _, rows := range [][2]int{{0, 0}, {16, shape.snps}} {
				for _, threads := range []int{1, 2, 4} {
					for _, vector := range []bool{true, false} {
						vectorRows = vector && restore
						opt := StreamOptions{Triangular: true, StripeRows: 8, IOPanelSNPs: 13, RowStart: rows[0], RowEnd: rows[1]}
						opt.Blis.Threads = threads
						sink := &countCollector{t: t, res: res, tile: 8, next: rows[0]}
						what := fmt.Sprintf("%d×%d %s rows=%v threads=%d vector=%v", shape.snps, shape.samples, srcName, rows, threads, vectorRows)
						if err := StreamSourceCounts(src, opt, sink); err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						if t.Failed() {
							t.Fatalf("%s: stripes differ from Matrix", what)
						}
						if want := (shape.snps - rows[0] + 7) / 8; sink.stripes != want {
							t.Fatalf("%s: %d stripes, want %d", what, sink.stripes, want)
						}
						for i, a := range sink.alleles {
							if int(a) != g.DerivedCount(i) {
								t.Fatalf("%s: SNP %d has %d alleles, want %d", what, i, a, g.DerivedCount(i))
							}
						}
					}
				}
			}
		}
	}
}

// TestCountConverterMatchesMatrix: converting Matrix's own counts with a
// CountConverter built from the allele counts gives Matrix's D, r² and D′,
// every cell bit for bit, from any row start.
func TestCountConverterMatchesMatrix(t *testing.T) {
	g := streamMatrix(t, 53, 77, 3)
	res, err := Matrix(g, Options{Measures: MeasureD | MeasureR2 | MeasureDPrime | KeepCounts})
	if err != nil {
		t.Fatal(err)
	}
	n := g.SNPs
	alleles := make([]uint32, n)
	for i := range alleles {
		alleles[i] = uint32(g.DerivedCount(i))
	}
	conv := NewCountConverter(alleles, g.Samples)
	out := make([]float64, n)
	for _, m := range []struct {
		meas Measure
		want []float64
	}{{MeasureD, res.D}, {MeasureR2, res.R2}, {MeasureDPrime, res.DPrime}} {
		for i := 0; i < n; i++ {
			for _, j0 := range []int{0, i, n - 5} {
				conv.Row(m.meas, out[:n-j0], res.Counts[i*n+j0:(i+1)*n], i, j0)
				for c, v := range out[:n-j0] {
					if w := m.want[i*n+j0+c]; math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("measure %d (%d,%d): %v, Matrix %v", m.meas, i, j0+c, v, w)
					}
				}
			}
		}
	}
}

// TestCountScanRejects: a counts scan is triangular, and a negative Threads
// fails it with the driver's error, as it fails the float scan.
func TestCountScanRejects(t *testing.T) {
	g := streamMatrix(t, 64, 128, 3)
	opt := StreamOptions{StripeRows: 16}
	if err := StreamSourceCounts(bitmat.NewMemSource(g), opt, &countCollector{t: t}); err == nil {
		t.Fatal("a full-width counts scan was accepted")
	}
	opt.Triangular, opt.Blis.Threads = true, -1
	floatErr := StreamSource(bitmat.NewMemSource(g), opt, func(int, int, []float64) {})
	res, _ := Matrix(g, Options{Measures: MeasureR2 | KeepCounts})
	countErr := StreamSourceCounts(bitmat.NewMemSource(g), opt, &countCollector{t: t, res: res, tile: 16})
	if floatErr == nil || countErr == nil || countErr.Error() != floatErr.Error() {
		t.Fatalf("counts scan returned %v, float scan %v: want the same error", countErr, floatErr)
	}
}
