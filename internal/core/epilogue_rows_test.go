package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ldgemm/internal/popcount"
)

// rowKernels pairs each AVX-512 row kernel with the Go loop it must equal
// bit for bit and the per-SNP table that loop reads (see r2Table).
var rowKernels = []struct {
	name   string
	vector func(out []float64, cnt []uint32, colFreq, colTab []float64, inv, pa, tab float64) int
	scalar func(out []float64, cnt []uint32, colFreq, colTab []float64, inv, pa, tab float64)
	table  func(p []float64) []float64
}{
	{"D", rowD, scalarD, varTable}, // D reads no table; any will do
	{"r2-fast", rowR2Fast, scalarR2Fast, invVarTable},
	{"r2-exact", rowR2Exact, scalarR2Exact, varTable},
}

// rowOperands holds one row's operands, each a window at its own offset
// into a longer backing array, so the kernels see every alignment and a
// write past the row lands in cells the checks can see.
type rowOperands struct {
	cnt             []uint32
	colFreq, colTab []float64
	outBack         []float64
	off             int
}

// sentinel fills output cells no conversion may leave behind: a NaN whose
// payload no arithmetic produces.
var sentinel = math.Float64frombits(0x7ff8_dead_beef_0001)

func newRowOperands(cnt []uint32, colFreq, colTab []float64, off int) rowOperands {
	return rowOperands{
		cnt:     append(make([]uint32, off+1), cnt...)[off+1:],
		colFreq: append(make([]float64, off), colFreq...)[off:],
		colTab:  append(make([]float64, (off+3)%8), colTab...)[(off+3)%8:],
		outBack: make([]float64, off+len(cnt)+8),
		off:     off,
	}
}

// out returns a fresh output window, sentinel-filled with its surroundings.
func (o rowOperands) out() []float64 {
	for i := range o.outBack {
		o.outBack[i] = sentinel
	}
	return o.outBack[o.off:][:len(o.cnt)]
}

// checkVectorRow converts the row as denseEpilogue.row does — kernel first,
// Go loop from the index it returns — and compares every cell's bits with
// the Go loop run over the whole row.
func checkVectorRow(t testing.TB, ki int, o rowOperands, inv, pa, tab float64) {
	t.Helper()
	k := rowKernels[ki]
	n := len(o.cnt)
	want := make([]float64, n)
	k.scalar(want, o.cnt, o.colFreq, o.colTab, inv, pa, tab)

	out := o.out()
	done := k.vector(out, o.cnt, o.colFreq, o.colTab, inv, pa, tab)
	if done != 0 && done != n&^7 {
		t.Fatalf("%s len %d: kernel converted %d cells, want %d", k.name, n, done, n&^7)
	}
	for c, v := range o.outBack {
		if c -= o.off; (c < 0 || c >= done) && math.Float64bits(v) != math.Float64bits(sentinel) {
			t.Fatalf("%s len %d off %d: kernel wrote cell %d, past its %d", k.name, n, o.off, c, done)
		}
	}
	k.scalar(out[done:], o.cnt[done:], o.colFreq[done:], o.colTab[done:], inv, pa, tab)
	for c := range want {
		if g, w := math.Float64bits(out[c]), math.Float64bits(want[c]); g != w {
			t.Fatalf("%s len %d off %d cell %d (cnt %d, pa %g, pb %g): vector %016x (%g), scalar %016x (%g)",
				k.name, n, o.off, c, o.cnt[c], pa, o.colFreq[c], g, out[c], w, want[c])
		}
	}
}

// TestEpilogueRowsMatchScalar: the Go loops equal PairFromFreqs cell by
// cell, and each row kernel equals its Go loop bit for bit, over every
// length 0–67 (all tails, up to eight vector iterations), every operand
// misalignment, and the count and frequency corners: monomorphic SNPs
// (exact gives +0 by the mask, fast gives 0 by the zero reciprocal), counts
// past 2³¹ (an unsigned convert, not a signed one), and 2⁻⁵³⁰, whose
// variance product is subnormal and whose reciprocal product overflows.
func TestEpilogueRowsMatchScalar(t *testing.T) {
	const samples = 1000 // 1/1000 is inexact: the multiply by inv rounds
	inv := 1 / float64(samples)
	counts := []uint32{0, 1, samples / 2, samples, 1 << 31, 1<<32 - 1}
	freqs := []float64{0, 1, 0.5, 1.0 / 3, math.Ldexp(1, -530)}
	const maxLen = 67
	// Lengths 6 and 5 are coprime, so any 30 consecutive cells meet every
	// count with every frequency.
	cnt := make([]uint32, maxLen+len(freqs))
	p := make([]float64, len(cnt))
	for c := range cnt {
		cnt[c], p[c] = counts[c%len(counts)], freqs[c%len(freqs)]
	}

	t.Run("scalar", func(t *testing.T) {
		out := make([]float64, len(cnt))
		for ki, k := range rowKernels {
			tabs := k.table(p)
			for a, pa := range freqs {
				k.scalar(out, cnt, p, tabs, inv, pa, tabs[a])
				for c, got := range out {
					pr := PairFromFreqs(float64(cnt[c])*inv, pa, p[c])
					want := [...]float64{pr.D, pr.D * pr.D * (tabs[a] * tabs[c]), pr.R2}[ki]
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s cnt %d pa %g pb %g: loop %g, PairFromFreqs %g", k.name, cnt[c], pa, p[c], got, want)
					}
				}
			}
		}
	})

	t.Run("vector", func(t *testing.T) {
		if !popcount.HasAVX512F() {
			t.Skip("host has no AVX-512F (or the OS does not save zmm state): the row kernels convert nothing here")
		}
		for ki, k := range rowKernels {
			tabs := k.table(p)
			for n := 0; n <= maxLen; n++ {
				for off := 0; off < 8; off++ {
					a := (n + off) % len(freqs) // row SNP, and where the column window starts
					o := newRowOperands(cnt[a:][:n], p[a:][:n], tabs[a:][:n], off)
					checkVectorRow(t, ki, o, inv, p[a], tabs[a])
				}
			}
		}
	})
}

// TestEpilogueRowsCheckExtents: the assembly never sees a slice length, so
// a short operand must panic in the wrapper, as the Go loop's reslice does.
func TestEpilogueRowsCheckExtents(t *testing.T) {
	if !popcount.HasAVX512F() {
		t.Skip("host has no AVX-512F: the wrappers return before their checks")
	}
	cnt := make([]uint32, 16)
	full, short := make([]float64, 16), make([]float64, 15)
	for _, k := range rowKernels {
		if got := k.vector(full, cnt, full, full, 1, 0.5, 0.25); got != 16 {
			t.Fatalf("%s: exact extents converted %d of 16", k.name, got)
		}
		for name, call := range map[string]func(){
			"out":     func() { k.vector(short, cnt, full, full, 1, 0.5, 0.25) },
			"colFreq": func() { k.vector(full, cnt, short, full, 1, 0.5, 0.25) },
			"colTab":  func() { k.vector(full, cnt, full, short, 1, 0.5, 0.25) },
		} {
			if name == "colTab" && k.name == "D" {
				continue // D reads no table
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: short %s accepted", k.name, name)
					}
				}()
				call()
			}()
		}
	}
}

// FuzzEpilogueRow maps bytes to a kernel, an operand offset, a sample
// count, and one (count, frequency) pair per six bytes — the row's length
// is however many pairs the input holds — and checks vector against scalar
// bit for bit. Frequencies are k/65535, so 0 and 1 occur and NaN does not
// (a NaN operand's payload survives a multiply by operand order, which the
// compiler picks for the Go loop).
func FuzzEpilogueRow(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4})
	f.Add(append([]byte{1, 3, 0x03, 0xe8}, make([]byte, 6*19)...))
	seed := []byte{2, 5, 0x02, 0x00}
	for c := 0; c < 24; c++ {
		seed = append(seed, 0xff, 0xff, 0xff, byte(c), byte(c*37), byte(c*11))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		ki, off := int(data[0])%len(rowKernels), int(data[1])%8
		samples := int(binary.BigEndian.Uint16(data[2:]))
		var inv float64
		if samples > 0 {
			inv = 1 / float64(samples)
		}
		cells := min((len(data)-4)/6, 512)
		cnt := make([]uint32, cells)
		p := make([]float64, cells)
		for c := range cnt {
			cell := data[4+6*c:]
			cnt[c] = binary.BigEndian.Uint32(cell)
			p[c] = float64(binary.BigEndian.Uint16(cell[4:])) / 65535
		}
		tabs := rowKernels[ki].table(p)
		pa, tab := float64(data[1])/255, 0.0
		if cells > 0 {
			pa, tab = p[0], tabs[0]
		}
		checkVectorRow(t, ki, newRowOperands(cnt, p, tabs, off), inv, pa, tab)
	})
}

// BenchmarkEpilogueRow times one row conversion per measure, Go loop
// against row kernel + Go tail, at a narrow row and at one small-k job's
// width, and then one selection row (select.go): fast r² converted and
// selected against a floor one cell in a hundred reaches, as on a full
// top-K heap, by scalarR2Fast + selectScalar and by the fused kernel. One
// row's operands (≈ 100 KB at 3840 cells) stay L2-resident, so the figure
// is the conversion itself, not the stripe's memory traffic.
func BenchmarkEpilogueRow(b *testing.B) {
	const samples = 512
	rng := rand.New(rand.NewSource(20))
	for _, nn := range []int{512, 3840} {
		cnt := make([]uint32, nn)
		p := make([]float64, nn)
		for c := range cnt {
			cnt[c] = uint32(rng.Intn(samples + 1))
			p[c] = float64(1+rng.Intn(samples-1)) / samples
		}
		out := make([]float64, nn)
		for _, k := range rowKernels {
			tabs := k.table(p)
			for _, vector := range []bool{false, true} {
				path := "scalar"
				if vector {
					path = "vector"
				}
				b.Run(fmt.Sprintf("%s/%s/nn=%d", k.name, path, nn), func(b *testing.B) {
					if vector && !popcount.HasAVX512F() {
						b.Skip("host has no AVX-512F")
					}
					for i := 0; i < b.N; i++ {
						done := 0
						if vector {
							done = k.vector(out, cnt, p, tabs, 1.0/samples, p[0], tabs[0])
						}
						k.scalar(out[done:], cnt[done:], p[done:], tabs[done:], 1.0/samples, p[0], tabs[0])
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nn), "ns/cell")
				})
			}
		}
		inv, tabs := 1.0/samples, invVarTable(p)
		scalarR2Fast(out, cnt, p, tabs, inv, p[0], tabs[0])
		floor := slices.Sorted(slices.Values(out))[nn*99/100]
		cols, vals := make([]int32, keepRoom(nn)), make([]float64, keepRoom(nn))
		for _, vector := range []bool{false, true} {
			path := "scalar"
			if vector {
				path = "vector"
			}
			b.Run(fmt.Sprintf("select/%s/nn=%d", path, nn), func(b *testing.B) {
				if vector && !popcount.HasAVX512F() {
					b.Skip("host has no AVX-512F")
				}
				for i := 0; i < b.N; i++ {
					if vector {
						selectR2Fast(cols, vals, cnt, p, tabs, inv, p[0], tabs[0], floor, 0, 0)
					} else {
						scalarR2Fast(out, cnt, p, tabs, inv, p[0], tabs[0])
						selectScalar(cols, vals, out, floor, 0, 0)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nn), "ns/cell")
			})
		}
	}
}
