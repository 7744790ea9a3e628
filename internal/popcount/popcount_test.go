package popcount

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

var wordCases = []uint64{
	0, 1, 0x8000000000000000, ^uint64(0),
	0x5555555555555555, 0xaaaaaaaaaaaaaaaa,
	0x0123456789abcdef, 0xfedcba9876543210,
	1 << 31, 1<<32 - 1, 1 << 63,
}

// counters is every single-word implementation by name.
var counters = map[string]Counter{
	"hw":       Word,
	"swar":     SWAR,
	"lookup8":  Lookup8,
	"lookup16": Lookup16,
}

func TestSingleWordCountersAgree(t *testing.T) {
	for name, count := range counters {
		for _, x := range wordCases {
			if got, want := count(x), bits.OnesCount64(x); got != want {
				t.Errorf("%s(%#x) = %d, want %d", name, x, got, want)
			}
		}
	}
}

func TestQuickCountersAgree(t *testing.T) {
	for name, count := range counters {
		count := count
		f := func(x uint64) bool { return count(x) == bits.OnesCount64(x) }
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestAndCount(t *testing.T) {
	a := []uint64{0b1100, 0xff00}
	b := []uint64{0b0110, 0x0ff0}
	// 0b0100 has 1 bit; 0x0f00 has 4 bits.
	if got := AndCount(a, b); got != 5 {
		t.Fatalf("AndCount = %d, want 5", got)
	}
	if got := AndCount(nil, nil); got != 0 {
		t.Fatalf("AndCount(nil) = %d", got)
	}
}

func TestAndCount3(t *testing.T) {
	a := []uint64{0b1111}
	b := []uint64{0b0111}
	c := []uint64{0b0011}
	if got := AndCount3(a, b, c); got != 2 {
		t.Fatalf("AndCount3 = %d, want 2", got)
	}
}

func TestAndCountWith(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := make([]uint64, 40)
	b := make([]uint64, 40)
	for i := range a {
		a[i], b[i] = rng.Uint64(), rng.Uint64()
	}
	want := AndCount(a, b)
	for name, count := range counters {
		if got := AndCountWith(count, a, b); got != want {
			t.Errorf("AndCountWith(%s) = %d, want %d", name, got, want)
		}
	}
}

func TestCSA(t *testing.T) {
	// Exhaustive over single-bit triples: a+b+c == 2*carry + sum.
	for a := uint64(0); a < 2; a++ {
		for b := uint64(0); b < 2; b++ {
			for c := uint64(0); c < 2; c++ {
				carry, sum := csa(a, b, c)
				if a+b+c != 2*carry+sum {
					t.Fatalf("csa(%d,%d,%d) = (%d,%d)", a, b, c, carry, sum)
				}
			}
		}
	}
}

func BenchmarkPopcountWordHW(b *testing.B)       { benchWord(b, Word) }
func BenchmarkPopcountWordSWAR(b *testing.B)     { benchWord(b, SWAR) }
func BenchmarkPopcountWordLookup8(b *testing.B)  { benchWord(b, Lookup8) }
func BenchmarkPopcountWordLookup16(b *testing.B) { benchWord(b, Lookup16) }

func benchWord(b *testing.B, count Counter) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]uint64, 4096)
	for i := range xs {
		xs[i] = rng.Uint64()
	}
	b.SetBytes(int64(len(xs) * 8))
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for _, x := range xs {
			sink += count(x)
		}
	}
	benchSink = sink
}

var benchSink int

func BenchmarkAndCount(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]uint64, 4096)
	y := make([]uint64, 4096)
	for i := range x {
		x[i], y[i] = rng.Uint64(), rng.Uint64()
	}
	b.SetBytes(int64(len(x) * 16))
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += AndCount(x, y)
	}
	benchSink = sink
}
