package blis

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/kernel"
)

func randomMatrix(rng *rand.Rand, snps, samples int) *bitmat.Matrix {
	m := bitmat.New(snps, samples)
	mask := m.PadMask()
	for i := 0; i < snps; i++ {
		words := m.SNP(i)
		for w := range words {
			words[w] = rng.Uint64()
		}
		if len(words) > 0 {
			words[len(words)-1] &= mask
		}
	}
	return m
}

// shapeKernels are the register shapes the driver tests cross with their
// blockings: the hand-unrolled Go kernels, the host default and the wide
// and tall shapes as Generic instances.
func shapeKernels() []kernel.Kernel {
	return append(append([]kernel.Kernel(nil), kernel.Fixed...), kernel.Default, kernel.Generic(8, 4), kernel.Generic(4, 8))
}

// smallConfig forces many blocking fringes on small inputs.
func smallConfig(k kernel.Kernel, threads int) Config {
	return Config{MC: 12, NC: 20, KC: 3, Kernel: k, Threads: threads}
}

func TestGemmMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct{ m, n, samples int }{
		{1, 1, 1}, {1, 1, 64}, {5, 7, 65}, {16, 16, 128},
		{33, 47, 200}, {64, 64, 1000}, {100, 30, 64*7 + 13},
	}
	for _, k := range shapeKernels() {
		for _, sh := range shapes {
			a := randomMatrix(rng, sh.m, sh.samples)
			b := randomMatrix(rng, sh.n, sh.samples)
			got := make([]uint32, sh.m*sh.n)
			if err := Gemm(smallConfig(k, 3), a, b, got, sh.n); err != nil {
				t.Fatalf("%s %v: %v", k.Name, sh, err)
			}
			want := make([]uint32, sh.m*sh.n)
			if err := Reference(a, b, want, sh.n); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s %v: C[%d] = %d, want %d", k.Name, sh, i, got[i], want[i])
				}
			}
		}
	}
}

func TestGemmDefaultConfigLargerInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 301, 700)
	b := randomMatrix(rng, 257, 700)
	got := make([]uint32, 301*257)
	if err := Gemm(Config{}, a, b, got, 257); err != nil {
		t.Fatal(err)
	}
	want := make([]uint32, 301*257)
	if err := Reference(a, b, want, 257); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("C[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestGemmAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 10, 100)
	b := randomMatrix(rng, 10, 100)
	c := make([]uint32, 100)
	if err := Gemm(Config{}, a, b, c, 10); err != nil {
		t.Fatal(err)
	}
	first := append([]uint32(nil), c...)
	if err := Gemm(Config{}, a, b, c, 10); err != nil {
		t.Fatal(err)
	}
	for i := range c {
		if c[i] != 2*first[i] {
			t.Fatalf("C[%d] = %d after second call, want %d", i, c[i], 2*first[i])
		}
	}
}

func TestGemmLdcStride(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 9, 77)
	b := randomMatrix(rng, 7, 77)
	const ldc = 11
	c := make([]uint32, 9*ldc)
	sentinel := uint32(0x77777777)
	for i := 0; i < 9; i++ {
		for j := 7; j < ldc; j++ {
			c[i*ldc+j] = sentinel
		}
	}
	if err := Gemm(smallConfig(kernel.Default, 2), a, b, c, ldc); err != nil {
		t.Fatal(err)
	}
	want := make([]uint32, 9*7)
	if err := Reference(a, b, want, 7); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		for j := 0; j < 7; j++ {
			if c[i*ldc+j] != want[i*7+j] {
				t.Fatalf("C[%d,%d] = %d, want %d", i, j, c[i*ldc+j], want[i*7+j])
			}
		}
		for j := 7; j < ldc; j++ {
			if c[i*ldc+j] != sentinel {
				t.Fatalf("stride gap overwritten at (%d,%d)", i, j)
			}
		}
	}
}

func TestGemmErrors(t *testing.T) {
	a := bitmat.New(3, 10)
	b := bitmat.New(3, 11)
	if err := Gemm(Config{}, a, b, make([]uint32, 9), 3); err == nil {
		t.Fatal("sample mismatch accepted")
	}
	b = bitmat.New(3, 10)
	if err := Gemm(Config{}, a, b, make([]uint32, 8), 3); err == nil {
		t.Fatal("short C accepted")
	}
	if err := Gemm(Config{}, a, b, make([]uint32, 9), 2); err == nil {
		t.Fatal("ldc < n accepted")
	}
	if err := Gemm(Config{MC: -1}, a, b, make([]uint32, 9), 3); err == nil {
		t.Fatal("negative MC accepted")
	}
}

func TestGemmEmpty(t *testing.T) {
	a := bitmat.New(0, 10)
	b := bitmat.New(5, 10)
	if err := Gemm(Config{}, a, b, nil, 5); err != nil {
		t.Fatalf("empty m: %v", err)
	}
	z := bitmat.New(4, 0) // zero samples
	c := make([]uint32, 16)
	if err := Gemm(Config{}, z, bitmat.New(4, 0), c, 4); err != nil {
		t.Fatal(err)
	}
	for _, v := range c {
		if v != 0 {
			t.Fatal("zero-sample GEMM produced nonzero counts")
		}
	}
}

func TestSyrkUpperTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 7, 16, 33, 65, 130} {
		a := randomMatrix(rng, n, 257)
		got := make([]uint32, n*n)
		if err := Syrk(smallConfig(kernel.Default, 4), a, got, n, false); err != nil {
			t.Fatal(err)
		}
		want := make([]uint32, n*n)
		if err := Reference(a, a, want, n); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if got[i*n+j] != want[i*n+j] {
					t.Fatalf("n=%d: upper C[%d,%d] = %d, want %d", n, i, j, got[i*n+j], want[i*n+j])
				}
			}
		}
	}
}

func TestSyrkMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 45
	a := randomMatrix(rng, n, 100)
	got := make([]uint32, n*n)
	if err := Syrk(Config{MC: 8, NC: 8, KC: 1, Threads: 2}, a, got, n, true); err != nil {
		t.Fatal(err)
	}
	want := make([]uint32, n*n)
	if err := Reference(a, a, want, n); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("mirrored C[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSyrkDiagonalIsDerivedCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(rng, 20, 333)
	c := make([]uint32, 400)
	if err := Syrk(Config{}, a, c, 20, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if int(c[i*20+i]) != a.DerivedCount(i) {
			t.Fatalf("diag[%d] = %d, want %d", i, c[i*20+i], a.DerivedCount(i))
		}
	}
}

func TestMirror(t *testing.T) {
	c := []uint32{
		1, 2, 3,
		0, 4, 5,
		0, 0, 6,
	}
	Mirror(c, 3, 3)
	want := []uint32{1, 2, 3, 2, 4, 5, 3, 5, 6}
	for i := range c {
		if c[i] != want[i] {
			t.Fatalf("Mirror[%d] = %d, want %d", i, c[i], want[i])
		}
	}
}

func TestGemmSingleVsMultiThread(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomMatrix(rng, 120, 500)
	b := randomMatrix(rng, 90, 500)
	c1 := make([]uint32, 120*90)
	c8 := make([]uint32, 120*90)
	if err := Gemm(Config{MC: 16, NC: 24, KC: 2, Threads: 1}, a, b, c1, 90); err != nil {
		t.Fatal(err)
	}
	if err := Gemm(Config{MC: 16, NC: 24, KC: 2, Threads: 8}, a, b, c8, 90); err != nil {
		t.Fatal(err)
	}
	for i := range c1 {
		if c1[i] != c8[i] {
			t.Fatalf("thread count changed result at %d: %d vs %d", i, c1[i], c8[i])
		}
	}
}

// Property: for random shapes, blocking parameters, and kernels, Gemm
// equals Reference.
func TestQuickGemm(t *testing.T) {
	f := func(seed int64, m8, n8, s8, mc8, nc8, kc8 uint8, kidx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(m8%40) + 1
		n := int(n8%40) + 1
		samples := int(s8)*3 + 1
		ks := shapeKernels()
		k := ks[int(kidx)%len(ks)]
		cfg := Config{
			MC: int(mc8%30) + 1, NC: int(nc8%30) + 1, KC: int(kc8%5) + 1,
			Kernel: k, Threads: int(seed%4) + 1,
		}
		if cfg.Threads < 1 {
			cfg.Threads = 1
		}
		a := randomMatrix(rng, m, samples)
		b := randomMatrix(rng, n, samples)
		got := make([]uint32, m*n)
		if err := Gemm(cfg, a, b, got, n); err != nil {
			return false
		}
		want := make([]uint32, m*n)
		if err := Reference(a, b, want, n); err != nil {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Syrk upper triangle equals Reference for random shapes/configs.
func TestQuickSyrk(t *testing.T) {
	f := func(seed int64, n8, s8, mc8, nc8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%50) + 1
		samples := int(s8)*2 + 1
		cfg := Config{MC: int(mc8%20) + 1, NC: int(nc8%20) + 1, KC: 2, Threads: 3}
		a := randomMatrix(rng, n, samples)
		got := make([]uint32, n*n)
		if err := Syrk(cfg, a, got, n, true); err != nil {
			return false
		}
		want := make([]uint32, n*n)
		if err := Reference(a, a, want, n); err != nil {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
