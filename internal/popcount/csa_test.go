package popcount

import (
	"math/rand"
	"testing"
)

// fillPattern writes one of the satellite-mandated patterns into dst:
// uniform random, all-ones, all-zeros, or alternating 0101/1010 words.
func fillPattern(rng *rand.Rand, dst []uint64, pattern string) {
	for i := range dst {
		switch pattern {
		case "random":
			dst[i] = rng.Uint64()
		case "ones":
			dst[i] = ^uint64(0)
		case "zeros":
			dst[i] = 0
		case "alternating":
			if i%2 == 0 {
				dst[i] = 0x5555555555555555
			} else {
				dst[i] = 0xaaaaaaaaaaaaaaaa
			}
		default:
			panic("unknown pattern " + pattern)
		}
	}
}

var patterns = []string{"random", "ones", "zeros", "alternating"}

// testLengths covers 0, the fold boundaries (8, 16, 32) and their
// off-by-one neighbours, plus a spread of random lengths up to 1025.
func testLengths(rng *rand.Rand) []int {
	ns := []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 255, 256, 1024, 1025}
	for i := 0; i < 40; i++ {
		ns = append(ns, rng.Intn(1026))
	}
	return ns
}

func TestAndCountCSAMatchesAndCount(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range testLengths(rng) {
		for _, pat := range patterns {
			a := make([]uint64, n)
			b := make([]uint64, n)
			fillPattern(rng, a, pat)
			fillPattern(rng, b, "random")
			want := AndCount(a, b)
			if got := AndCountCSA(a, b); got != want {
				t.Fatalf("AndCountCSA(n=%d, %s) = %d, want %d", n, pat, got, want)
			}
			if got := AndCountVector(a, b); got != want {
				t.Fatalf("AndCountVector(n=%d, %s) = %d, want %d", n, pat, got, want)
			}
		}
	}
}

func TestAndCount3CSAMatchesAndCount3(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range testLengths(rng) {
		for _, pat := range patterns {
			a := make([]uint64, n)
			b := make([]uint64, n)
			c := make([]uint64, n)
			fillPattern(rng, a, pat)
			fillPattern(rng, b, "random")
			fillPattern(rng, c, "random")
			want := AndCount3(a, b, c)
			if got := AndCount3CSA(a, b, c); got != want {
				t.Fatalf("AndCount3CSA(n=%d, %s) = %d, want %d", n, pat, got, want)
			}
		}
	}
}

func TestMaskedCountsCSAMatchesMaskedCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range testLengths(rng) {
		for _, pat := range patterns {
			si := make([]uint64, n)
			ci := make([]uint64, n)
			sj := make([]uint64, n)
			cj := make([]uint64, n)
			fillPattern(rng, si, pat)
			fillPattern(rng, ci, "random")
			fillPattern(rng, sj, "random")
			fillPattern(rng, cj, pat)
			wv, wi, wj, wij := MaskedCounts(si, ci, sj, cj)
			gv, gi, gj, gij := MaskedCountsCSA(si, ci, sj, cj)
			if gv != wv || gi != wi || gj != wj || gij != wij {
				t.Fatalf("MaskedCountsCSA(n=%d, %s) = (%d,%d,%d,%d), want (%d,%d,%d,%d)",
					n, pat, gv, gi, gj, gij, wv, wi, wj, wij)
			}
			gv, gi, gj, gij = MaskedCountsVector(si, ci, sj, cj)
			if gv != wv || gi != wi || gj != wj || gij != wij {
				t.Fatalf("MaskedCountsVector(n=%d, %s) = (%d,%d,%d,%d), want (%d,%d,%d,%d)",
					n, pat, gv, gi, gj, gij, wv, wi, wj, wij)
			}
		}
	}
}

func TestCount(t *testing.T) {
	for _, x := range wordCases {
		if got, want := Count(x), Word(x); got != uint32(want) {
			t.Fatalf("Count(%#x) = %d, want %d", x, got, want)
		}
	}
}

func TestVectorNameConsistent(t *testing.T) {
	if HasVector() == (VectorName() == "none") {
		t.Fatalf("HasVector() = %v but VectorName() = %q", HasVector(), VectorName())
	}
}

func BenchmarkAndCountStrategies(b *testing.B) {
	const n = 256 // one KC slab of words
	rng := rand.New(rand.NewSource(9))
	x := make([]uint64, n)
	y := make([]uint64, n)
	fillPattern(rng, x, "random")
	fillPattern(rng, y, "random")
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			sinkInt = AndCount(x, y)
		}
	})
	b.Run("csa", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			sinkInt = AndCountCSA(x, y)
		}
	})
	b.Run("vector-"+VectorName(), func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			sinkInt = AndCountVector(x, y)
		}
	})
}

func BenchmarkMaskedCountsStrategies(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(10))
	si := make([]uint64, n)
	ci := make([]uint64, n)
	sj := make([]uint64, n)
	cj := make([]uint64, n)
	fillPattern(rng, si, "random")
	fillPattern(rng, ci, "random")
	fillPattern(rng, sj, "random")
	fillPattern(rng, cj, "random")
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(n * 8 * 4)
		for i := 0; i < b.N; i++ {
			v, a, c, d := MaskedCounts(si, ci, sj, cj)
			sinkInt = v + a + c + d
		}
	})
	b.Run("csa", func(b *testing.B) {
		b.SetBytes(n * 8 * 4)
		for i := 0; i < b.N; i++ {
			v, a, c, d := MaskedCountsCSA(si, ci, sj, cj)
			sinkInt = v + a + c + d
		}
	})
	b.Run("vector-"+VectorName(), func(b *testing.B) {
		b.SetBytes(n * 8 * 4)
		for i := 0; i < b.N; i++ {
			v, a, c, d := MaskedCountsVector(si, ci, sj, cj)
			sinkInt = v + a + c + d
		}
	})
}

var sinkInt int
