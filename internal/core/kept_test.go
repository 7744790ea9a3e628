package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"ldgemm/internal/bitmat"
)

// keptCell is one delivered survivor: its global row and column and its
// value's bits (a kept scan's count converted back).
type keptCell struct {
	i, j int
	bits uint64
}

// keepReference is the kept r² row as the dense epilogue and the store
// used to compute it: convert the whole row with scalarR2Exact, then keep
// the counts of the |v| ≥ τ cells.
func keepReference(cnt []uint32, colFreq, colVar []float64, inv, pa, va, tau float64) ([]int32, []uint32) {
	row := make([]float64, len(cnt))
	scalarR2Exact(row, cnt, colFreq, colVar, inv, pa, va)
	var cols []int32
	var counts []uint32
	for c, v := range row {
		if keep(v, tau) {
			cols, counts = append(cols, int32(c)), append(counts, cnt[c])
		}
	}
	return cols, counts
}

// keptRow runs the kept epilogue's exact-r² row path — fused kernel, then
// the converted tail — over one row, as keptEpilogue.row does.
func keptRow(cnt []uint32, colFreq, colVar []float64, inv, pa, va, tau float64) ([]int32, []uint32) {
	k := new(keeper)
	k.reset(0, 1, 0, len(cnt))
	e := &keptEpilogue{
		conv: &denseEpilogue{inv: inv, rowFreqs: []float64{pa}, colFreqs: colFreq, rowTab: []float64{va}, colTab: colVar},
		meas: MeasureR2, tau: tau, skip: skipBound(tau), k: k,
	}
	n := e.row(cnt, 0, 0)
	return k.cols[:n:n], k.counts[:n:n]
}

// checkKeptRow holds the fused row to the reference: the same columns, and
// every kept count.
func checkKeptRow(t testing.TB, what string, cnt []uint32, colFreq, colVar []float64, inv, pa, va, tau float64) {
	t.Helper()
	wc, wv := keepReference(cnt, colFreq, colVar, inv, pa, va, tau)
	gc, gv := keptRow(cnt, colFreq, colVar, inv, pa, va, tau)
	if len(gc) != len(wc) {
		t.Fatalf("%s (len %d, τ %g = %016x): kept %d cells %v, want %d %v", what, len(cnt), tau, math.Float64bits(tau), len(gc), gc, len(wc), wc)
	}
	for c := range wc {
		if gc[c] != wc[c] || gv[c] != wv[c] {
			t.Fatalf("%s (len %d, τ %g): survivor %d is column %d = count %d, want column %d = count %d",
				what, len(cnt), tau, c, gc[c], gv[c], wc[c], wv[c])
		}
	}
}

// TestKeepRowEdges: the fused r² keep kernel's skip at its edges, on the
// vector path and on the Go loops alone — a threshold equal to each value
// in the row and one ulp either side of it, monomorphic columns (den = 0,
// whose value is +0), τ = 0 (everything kept), a subnormal and the least
// normal τ, a τ above every value, and every row length 0–40, so each
// tail length follows whole groups.
func TestKeepRowEdges(t *testing.T) {
	const samples = 1000
	inv := 1.0 / samples
	const maxLen = 40
	cnt := make([]uint32, maxLen)
	p := make([]float64, maxLen)
	for c := range cnt {
		p[c] = float64(1+(c*37)%(samples-1)) / samples
		cnt[c] = uint32(float64(samples) * p[c] * (0.3 + 0.02*float64(c%30)))
		if c%11 == 5 {
			p[c], cnt[c] = 0, 0 // monomorphic: den = 0, value +0
		}
	}
	colVar := varTable(p)
	pa := 0.41
	va := pa * (1 - pa)
	row := make([]float64, maxLen)
	scalarR2Exact(row, cnt, p, colVar, inv, pa, va)
	mid := row[17] // a value the row holds
	if mid <= 0 {
		t.Fatalf("cell 17 converts to %g; pick another", mid)
	}
	taus := map[string]float64{
		"τ = 0":            0,
		"subnormal τ":      math.SmallestNonzeroFloat64,
		"least normal τ":   0x1p-1022,
		"τ above all":      2,
		"τ = 1 (r² ≤ 1)":   1,
		"τ just below 0.1": math.Nextafter(0.1, 0),
	}
	// Each value the row holds, and one ulp either side: a quotient that
	// rounded up to τ is where a skip without its margin drops a cell.
	for c, v := range row {
		taus[fmt.Sprintf("τ = cell %d", c)] = v
		taus[fmt.Sprintf("τ = cell %d + ulp", c)] = math.Nextafter(v, 2)
		taus[fmt.Sprintf("τ = cell %d − ulp", c)] = math.Nextafter(v, 0)
	}
	restore := vectorRows
	defer func() { vectorRows = restore }()
	for _, vector := range []bool{false, true} {
		vectorRows = vector && restore
		for name, tau := range taus {
			for n := 0; n <= maxLen; n++ {
				for _, lo := range []int{0, maxLen - n} {
					what := fmt.Sprintf("vector=%v %s from %d", vectorRows, name, lo)
					checkKeptRow(t, what, cnt[lo:][:n], p[lo:][:n], colVar[lo:][:n], inv, pa, va, tau)
				}
			}
		}
	}
	if skipBound(0) != 0 || skipBound(math.SmallestNonzeroFloat64) != 0 || skipBound(math.Inf(1)) != 0 || skipBound(math.NaN()) != 0 {
		t.Fatal("a zero, subnormal, infinite or NaN τ must skip nothing")
	}
	if s := skipBound(mid); !(s < mid) || s < mid*(1-0x1p-39) {
		t.Fatalf("skipBound(%g) = %g, want τ·(1−2⁻⁴⁰)", mid, s)
	}
}

// FuzzKeepRow maps bytes to a sample count, a threshold (any float64 bits),
// the row frequency, and one (count, frequency) pair per six bytes — the
// row's length is however many pairs the input holds — and holds the fused
// r² keep kernel to converting with scalarR2Exact, then keeping: the same
// kept columns, and every kept count. Frequencies are k/65535, so 0 and
// 1 occur and NaN does not, as in FuzzEpilogueRow.
func FuzzKeepRow(f *testing.F) {
	seed := func(tau float64, pa uint16, cells int) []byte {
		b := binary.BigEndian.AppendUint16(nil, 1000)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(tau))
		b = binary.BigEndian.AppendUint16(b, pa)
		for c := range cells {
			b = append(b, 0, 0, byte(c), byte(c*91), byte(c*37), byte(c*13))
		}
		return b
	}
	f.Add(seed(0.1, 30000, 19))
	f.Add(seed(0, 65535, 8))
	f.Add(seed(math.SmallestNonzeroFloat64, 12345, 33))
	f.Add(seed(0x1p-1022, 40000, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 12 {
			return
		}
		samples := int(binary.BigEndian.Uint16(data))
		var inv float64
		if samples > 0 {
			inv = 1 / float64(samples)
		}
		tau := math.Float64frombits(binary.BigEndian.Uint64(data[2:]))
		pa := float64(binary.BigEndian.Uint16(data[10:])) / 65535
		cells := min((len(data)-12)/6, 512)
		cnt := make([]uint32, cells)
		p := make([]float64, cells)
		for c := range cnt {
			cell := data[12+6*c:]
			cnt[c] = binary.BigEndian.Uint32(cell)
			p[c] = float64(binary.BigEndian.Uint16(cell[4:])) / 65535
		}
		checkKeptRow(t, "fuzz", cnt, p, varTable(p), inv, pa, pa*(1-pa), tau)
	})
}

// keptCollector is a KeptSink that copies out every survivor, its count
// converted to the scan's statistic by the scan's own row code over the
// allele counts it was handed, and checks the stripe contract as it goes:
// stripes in order, row pointers from 0 and monotone, columns strictly
// ascending within each row. It runs on the scan's workers, so it reports
// with Errorf, never Fatalf.
type keptCollector struct {
	t       *testing.T
	tau     float64
	opt     StreamOptions // the scan's, for its statistic
	samples int
	next    int
	buf     KeptStripe
	conv    *denseEpilogue
	meas    Measure
	cells   []keptCell
}

func (c *keptCollector) Threshold() float64      { return c.tau }
func (c *keptCollector) KeptBuffer() *KeptStripe { return &c.buf }

func (c *keptCollector) Alleles(a []uint32) {
	sc := newStripeScan(c.opt, frequencies(a, c.samples), c.samples)
	c.conv, c.meas = sc.epilogue(nil, 0, 0, 0), sc.stat()
}

func (c *keptCollector) KeptDone(k *KeptStripe) {
	if k.I0 != c.next {
		c.t.Errorf("stripe at row %d delivered, want %d", k.I0, c.next)
	}
	c.next = k.I0 + k.Rows
	if len(k.RowPtr) != k.Rows+1 || k.RowPtr[0] != 0 || len(k.Cols) != k.RowPtr[k.Rows] || len(k.Counts) != len(k.Cols) {
		c.t.Errorf("stripe %d: %d row pointers from %d over %d columns and %d counts", k.I0, len(k.RowPtr), k.RowPtr[0], len(k.Cols), len(k.Counts))
		return
	}
	var v [1]float64
	for r := range k.Rows {
		for x := k.RowPtr[r]; x < k.RowPtr[r+1]; x++ {
			if x > k.RowPtr[r] && k.Cols[x] <= k.Cols[x-1] {
				c.t.Errorf("row %d: column %d after %d", k.I0+r, k.Cols[x], k.Cols[x-1])
			}
			c.conv.convert(c.meas, v[:], k.Counts[x:x+1], k.I0+r, int(k.Cols[x]))
			c.cells = append(c.cells, keptCell{k.I0 + r, int(k.Cols[x]), math.Float64bits(v[0])})
		}
	}
}

// TestKeptScanMatchesFloatScan: a kept scan delivers exactly the float
// scan's cells with |v| ≥ τ — the same cells, in ascending columns, with no
// duplicate, and identical bits — for r² (exact and fast), D and D′;
// thresholds including one equal to a value the scan produces; bands 0, 3
// and n−1 and none; the whole triangle, a row window and a full-width
// scan; 1, 2 and 4 stripes in flight; a resident matrix and a windowed
// .ldbm; the kernels' path and the Go loops alone.
func TestKeptScanMatchesFloatScan(t *testing.T) {
	const n = 61
	g := streamMatrix(t, n, 83, 11)
	path := filepath.Join(t.TempDir(), "g.ldbm")
	if err := bitmat.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	file, err := bitmat.OpenFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	sources := map[string]bitmat.Source{"mem": bitmat.NewMemSource(g), "windowed": file}

	type shape struct {
		name string
		opt  StreamOptions
	}
	var shapes []shape
	for _, m := range []struct {
		name  string
		meas  Measure
		exact bool
	}{{"r2", MeasureR2, true}, {"r2-fast", MeasureR2, false}, {"d", MeasureD, true}, {"dprime", MeasureDPrime, true}} {
		base := StreamOptions{Options: Options{Measures: m.meas}, Exact: m.exact, Triangular: true, StripeRows: 8, IOPanelSNPs: 13}
		shapes = append(shapes, shape{m.name + "/triangle", base})
		for _, w := range []int{0, 3, n - 1} {
			o := base
			o.Banded, o.Band = true, w
			shapes = append(shapes, shape{fmt.Sprintf("%s/band=%d", m.name, w), o})
		}
		o := base
		o.Banded, o.Band, o.RowStart, o.RowEnd = true, 9, 13, 47
		shapes = append(shapes, shape{m.name + "/band=9/rows=13:47", o})
		o = base
		o.Triangular, o.StripeRows = false, 16
		shapes = append(shapes, shape{m.name + "/full", o})
	}

	restore := vectorRows
	defer func() { vectorRows = restore }()
	for _, sh := range shapes {
		// The reference: every float cell the scan delivers.
		var all []keptCell
		var vals []float64
		if err := StreamSource(sources["mem"], sh.opt, func(i, j0 int, row []float64) {
			for c, v := range row {
				all = append(all, keptCell{i, j0 + c, math.Float64bits(v)})
				vals = append(vals, v)
			}
		}); err != nil {
			t.Fatal(err)
		}
		taus := []float64{0, 0.02, 0.3, math.Abs(vals[len(vals)/3])}
		for _, tau := range taus {
			var want []keptCell
			for x, c := range all {
				if keep(vals[x], tau) {
					want = append(want, c)
				}
			}
			for srcName, src := range sources {
				for _, threads := range []int{1, 2, 4} {
					for _, vector := range []bool{true, false} {
						vectorRows = vector && restore
						opt := sh.opt
						opt.Blis.Threads = threads
						sink := &keptCollector{t: t, tau: tau, opt: opt, samples: g.Samples, next: max(opt.RowStart, 0)}
						if err := StreamSourceKept(src, opt, sink); err != nil || t.Failed() {
							t.Fatalf("%s %s threads=%d: %v", sh.name, srcName, threads, err)
						}
						what := fmt.Sprintf("%s τ=%g %s threads=%d vector=%v", sh.name, tau, srcName, threads, vectorRows)
						if len(sink.cells) != len(want) {
							t.Fatalf("%s: %d survivors, want %d", what, len(sink.cells), len(want))
						}
						for x := range want {
							if sink.cells[x] != want[x] {
								t.Fatalf("%s: survivor %d is %+v, want %+v", what, x, sink.cells[x], want[x])
							}
						}
					}
				}
			}
		}
	}
}

// TestKeepR2ExactStaysInRoom: the fused keep kernel writes whole vectors
// past the survivors, so it must stay inside keepRoom(n) cells of cols and
// counts — sentinels just past them survive every length 1–33, whatever is
// kept — and its wrapper must panic before the assembly runs on a short
// operand.
func TestKeepR2ExactStaysInRoom(t *testing.T) {
	if !vectorRows {
		t.Skip("host has no AVX-512F: the fused keep kernel selects nothing here")
	}
	const canary, sentinel = 0x7eadbeef, 0xdeadbeef
	for n := 1; n <= 33; n++ {
		for _, tau := range []float64{0, 0.5, 2} {
			room := keepRoom(n)
			cnt := make([]uint32, n)
			p := make([]float64, n)
			for c := range cnt {
				cnt[c], p[c] = uint32(c*7%11), float64(1+c%9)/10
			}
			colVar := varTable(p)
			run := func(cols []int32, counts []uint32) (int, int) {
				return keepR2Exact(cols, counts, cnt, p, colVar, 1.0/16, 0.3, 0.21, skipBound(tau), tau, 0)
			}
			cols := make([]int32, room+4)
			counts := make([]uint32, room+4)
			for c := room; c < room+4; c++ {
				cols[c], counts[c] = canary, sentinel
			}
			if done, kept := run(cols[:room], counts[:room]); done != n || kept > n {
				t.Fatalf("n=%d τ=%g: ran over %d cells and kept %d", n, tau, done, kept)
			}
			for c := room; c < room+4; c++ {
				if cols[c] != canary || counts[c] != sentinel {
					t.Fatalf("n=%d τ=%g: wrote cell %d, past its room of %d", n, tau, c, room)
				}
			}
			for what, short := range map[string]func(){
				"cols":   func() { run(cols[:room-1], counts[:room]) },
				"counts": func() { run(cols[:room], counts[:room-1]) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("n=%d: short %s accepted", n, what)
						}
					}()
					short()
				}()
			}
		}
	}
}

// TestKeptScanOneStripeOneWorker: a kept scan with a single stripe runs it
// alone, and still makes its driver calls on one worker — the stripe's
// keeper takes no concurrent runs — though the calls are large enough
// (512 × 512 cells × 16 words) that Threads = 4 would spread them.
func TestKeptScanOneStripeOneWorker(t *testing.T) {
	const n = 512
	g := streamMatrix(t, n, 1024, 5)
	opt := StreamOptions{Exact: true, Triangular: true, StripeRows: n}
	opt.Blis.Threads = 4
	const tau = 0.05
	var want []keptCell
	if err := StreamSource(bitmat.NewMemSource(g), opt, func(i, j0 int, row []float64) {
		for c, v := range row {
			if keep(v, tau) {
				want = append(want, keptCell{i, j0 + c, math.Float64bits(v)})
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	sink := &keptCollector{t: t, tau: tau, opt: opt, samples: g.Samples}
	if err := StreamSourceKept(bitmat.NewMemSource(g), opt, sink); err != nil || t.Failed() {
		t.Fatalf("kept scan: %v", err)
	}
	if len(sink.cells) != len(want) {
		t.Fatalf("%d survivors, want %d", len(sink.cells), len(want))
	}
	for x := range want {
		if sink.cells[x] != want[x] {
			t.Fatalf("survivor %d is %+v, want %+v", x, sink.cells[x], want[x])
		}
	}
}

// TestKeptScanRejectsNegativeThreads: a negative Threads fails a kept scan
// with the driver's error, as it fails the float scan, instead of running
// as if it were GOMAXPROCS.
func TestKeptScanRejectsNegativeThreads(t *testing.T) {
	g := streamMatrix(t, 64, 128, 3)
	opt := StreamOptions{Exact: true, Triangular: true, StripeRows: 16}
	opt.Blis.Threads = -1
	floatErr := StreamSource(bitmat.NewMemSource(g), opt, func(int, int, []float64) {})
	keptErr := StreamSourceKept(bitmat.NewMemSource(g), opt, &keptCollector{t: t, tau: 0.1})
	if floatErr == nil || keptErr == nil || keptErr.Error() != floatErr.Error() {
		t.Fatalf("kept scan returned %v, float scan %v: want the same error", keptErr, floatErr)
	}
}
