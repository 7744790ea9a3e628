package experiments

import (
	"math/rand"
	"testing"

	"ldgemm/internal/popcount"
)

// TestSectionVKernels holds every Section V loop the host runs to
// popcount.AndCount at every length from 0 to 1024 words (the loops take
// multiples of 8) on random, all-ones, all-zero and alternating operands.
// A loop the host cannot run is skipped by name.
func TestSectionVKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fill := map[string]func(i int) (uint64, uint64){
		"random":      func(int) (uint64, uint64) { return rng.Uint64(), rng.Uint64() },
		"ones":        func(int) (uint64, uint64) { return ^uint64(0), ^uint64(0) },
		"zeros":       func(int) (uint64, uint64) { return 0, ^uint64(0) },
		"alternating": func(i int) (uint64, uint64) { return 0x5555555555555555 << (i & 1), 0xaaaaaaaaaaaaaaaa },
	}
	for _, l := range sectionVLoops() {
		t.Run(l.name, func(t *testing.T) {
			if !l.runs {
				t.Skipf("%s: host lacks %s", l.name, l.needs)
			}
			for pattern, f := range fill {
				a, b := make([]uint64, sectionVWords), make([]uint64, sectionVWords)
				for i := range a {
					a[i], b[i] = f(i)
				}
				for n := 0; n <= sectionVWords; n += 8 {
					if got, want := l.fn(&a[0], &b[0], n), popcount.AndCount(a[:n], b[:n]); got != uint64(want) {
						t.Fatalf("%s, %d words: %d, want %d", pattern, n, got, want)
					}
				}
			}
		})
	}
}

// BenchmarkSectionV times each Section V loop over two L1-resident
// operands of sectionVWords words: ns a word.
func BenchmarkSectionV(b *testing.B) {
	x, y := sectionVOperands()
	for _, l := range sectionVLoops() {
		b.Run(l.name, func(b *testing.B) {
			if !l.runs {
				b.Skipf("%s: host lacks %s", l.name, l.needs)
			}
			for b.Loop() {
				l.fn(&x[0], &y[0], len(x))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sectionVWords), "ns/word")
		})
	}
}
