package server

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// jsonFloat is appendFloat as it was before the writer: strconv's shortest
// digits under encoding/json's rule for the form. It is the oracle.
func jsonFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1] // e-07 → e-7
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

// TestAppendFloatMatchesStrconv: the writer against strconv on the values
// where a digit generator or a layout goes wrong first, then in bulk.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	bulk := 1_000_000
	if testing.Short() {
		bulk = 20_000
	}
	var got, want []byte
	checked := 0
	check := func(f float64) {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return
		}
		for _, f := range [2]float64{f, -f} {
			checked++
			var err error
			got, err = appendFloat(got[:0], f)
			if want = jsonFloat(want[:0], f); err != nil || string(got) != string(want) {
				t.Fatalf("%016x: wrote %q (%v), strconv %q", math.Float64bits(f), got, err, want)
			}
		}
	}
	around := func(f float64) {
		check(f)
		check(math.Nextafter(f, math.Inf(1)))
		check(math.Nextafter(f, math.Inf(-1)))
	}

	check(0)
	around(math.MaxFloat64)
	for e := -1074; e <= 1023; e++ {
		around(math.Ldexp(1, e))
	}
	for e := -323; e <= 308; e++ {
		f, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		around(f)
	}
	// The two form switches, the integers float64 stops holding exactly,
	// and the most digits either form can take.
	for _, f := range []float64{1e-6, 1e21, 1 << 53, 1<<53 - 1, 1<<53 + 2, 1e-5, 1e20, 1.2345678901234567e-6,
		1.2345678901234567e20, 1.2345678901234567e-308, 1.2345678901234567e-7, 1.2345678901234567e21} {
		around(f)
	}
	for k := 0; k <= 100_000; k++ {
		check(float64(k) / 1e5)
	}
	// r²-shaped ratios: a squared count over a product of two.
	for a := 1; a <= 60; a++ {
		for b := 1; b <= 60; b++ {
			for c := b; c <= 60; c++ {
				check(float64(a*a) / float64(b*c))
			}
		}
	}

	rng := rand.New(rand.NewSource(24))
	for i := 0; i < bulk; i++ {
		check(math.Float64frombits(rng.Uint64()))                // any bits
		check(math.Float64frombits(rng.Uint64() >> 12))          // subnormals
		check(float64(rng.Uint64() >> 2))                        // 62-bit integers
		check(rng.Float64())                                     // [0, 1)
		check(rng.NormFloat64() * float64(int(1)<<rng.Intn(40))) // matvec-shaped
	}
	t.Logf("%d values", checked)
	if !testing.Short() && checked < 1e7 {
		t.Fatalf("checked %d values, want at least 1e7", checked)
	}
}

// TestPow10Table rebuilds pow10Tab with math/big, entry by entry, rounded up
// as the writer reads it and rounded down as the reader does.
func TestPow10Table(t *testing.T) {
	one, ten := big.NewInt(1), big.NewInt(10)
	for k := pow10Min; k <= pow10Max; k++ {
		// 10^k = num / den; g = ⌈num × 2^s / den⌉ with s making it 128 bits.
		num, den := big.NewInt(1), big.NewInt(1)
		if k >= 0 {
			num.Exp(ten, big.NewInt(int64(k)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(-k)), nil)
		}
		s := 128 - num.BitLen() + den.BitLen()
		if new(big.Int).Lsh(num, uint(max(s, 0))).Cmp(new(big.Int).Lsh(den, uint(max(-s, 0)+128))) >= 0 {
			s-- // num × 2^s / den ≥ 2^128: one bit too many
		}
		num.Lsh(num, uint(max(s, 0)))
		den.Lsh(den, uint(max(-s, 0)))
		g, rem := new(big.Int).QuoRem(num, den, new(big.Int))
		words := func(g *big.Int) (hi, lo uint64) {
			return new(big.Int).Rsh(g, 64).Uint64(), new(big.Int).And(g, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		}
		fhi, flo := words(g)
		if hi, lo := pow10Floor(k); g.BitLen() != 128 || hi != fhi || lo != flo {
			t.Errorf("1e%d rounded down: the reader takes {%#016x, %#016x}, math/big {%#016x, %#016x} (%d bits)", k, hi, lo, fhi, flo, g.BitLen())
		}
		if exact := rem.Sign() == 0; exact != (0 <= k && k <= 55) {
			t.Errorf("1e%d: exact in 128 bits: %v", k, exact)
		}
		if rem.Sign() != 0 {
			g.Add(g, one)
		}
		hi, lo := words(g)
		if g.BitLen() != 128 || hi != pow10Tab[k-pow10Min][0] || lo != pow10Tab[k-pow10Min][1] {
			t.Errorf("1e%d: table {%#016x, %#016x}, math/big {%#016x, %#016x} (%d bits)",
				k, pow10Tab[k-pow10Min][0], pow10Tab[k-pow10Min][1], hi, lo, g.BitLen())
		}
	}
}

// TestPow10TableDigest pins pow10Tab as a whole: the SHA-256 of its words,
// k ascending, hi then lo, each 8 bytes little-endian, is that of the table
// the writer and the reader were first validated on, so the builder cannot
// drift together with TestPow10Table's oracle.
func TestPow10TableDigest(t *testing.T) {
	const want = "c17206ff27377115c3b8d157dbee14db12200d661f32727fe5535d99dbe11b5c"
	var words []byte
	for _, g := range pow10Tab {
		words = binary.LittleEndian.AppendUint64(words, g[0])
		words = binary.LittleEndian.AppendUint64(words, g[1])
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(words)); got != want {
		t.Fatalf("pow10Tab digest %s, want %s", got, want)
	}
}

// BenchmarkPow10Table: what building the table costs at package init.
func BenchmarkPow10Table(b *testing.B) {
	for range b.N {
		pow10Table()
	}
}

var sinkBytes []byte

// BenchmarkAppendFloat: the writer beside strconv.AppendFloat on what the
// float payloads hold — r² cells, and a matvec result (|y| ≥ 1).
func BenchmarkAppendFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	r2, y := make([]float64, 4096), make([]float64, 4096)
	for i := range r2 {
		a, n1, n2 := rng.Intn(400)+1, rng.Intn(900)+100, rng.Intn(900)+100
		r2[i] = float64(a*a) / float64(n1*n2*64)
		y[i] = (1 + rng.Float64()) * float64(int(1)<<rng.Intn(10)) * float64(1-2*rng.Intn(2))
	}
	buf := make([]byte, 0, len(r2)*maxFloatLen)
	for _, c := range []struct {
		name string
		vals []float64
	}{{"r2", r2}, {"matvec", y}} {
		run := func(name string, write func(b []byte, f float64) []byte) {
			b.Run(c.name+"/"+name, func(b *testing.B) {
				for b.Loop() {
					out := buf
					for _, f := range c.vals {
						out = write(out, f)
					}
					sinkBytes = out
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.vals)), "ns/float")
			})
		}
		run("writer", func(b []byte, f float64) []byte { b, _ = appendFloat(b, f); return b })
		run("strconv", func(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'f', -1, 64) })
	}
}
