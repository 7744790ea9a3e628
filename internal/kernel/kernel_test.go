package kernel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/popcount"
)

// randomMatrix builds a random bit matrix with about half the bits set.
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

// runKernel packs panels for SNPs [0,MR) of a and [0,NR) of b over all
// words and applies the kernel once.
func runKernel(k Kernel, a, b *bitmat.Matrix) []uint32 {
	kc := a.Words
	ap := make([]uint64, kc*k.MR)
	bp := make([]uint64, kc*k.NR)
	PackPanel(ap, a, 0, min(a.SNPs, k.MR), k.MR, 0, kc)
	PackPanel(bp, b, 0, min(b.SNPs, k.NR), k.NR, 0, kc)
	c := make([]uint32, k.MR*k.NR)
	k.Fn(kc, ap, bp, c, k.NR)
	return c
}

func TestFixedKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range Fixed {
		a := randomMatrix(rng, k.MR, 300)
		b := randomMatrix(rng, k.NR, 300)
		got := runKernel(k, a, b)
		for i := 0; i < k.MR; i++ {
			for j := 0; j < k.NR; j++ {
				want := uint32(popcount.AndCount(a.SNP(i), b.SNP(j)))
				if got[i*k.NR+j] != want {
					t.Errorf("%s: C[%d,%d] = %d, want %d", k.Name, i, j, got[i*k.NR+j], want)
				}
			}
		}
	}
}

func TestKernelsAccumulate(t *testing.T) {
	// Calling the kernel twice must double the counts (C += semantics).
	rng := rand.New(rand.NewSource(5))
	for _, k := range Fixed {
		a := randomMatrix(rng, k.MR, 128)
		b := randomMatrix(rng, k.NR, 128)
		kc := a.Words
		ap := make([]uint64, kc*k.MR)
		bp := make([]uint64, kc*k.NR)
		PackPanel(ap, a, 0, k.MR, k.MR, 0, kc)
		PackPanel(bp, b, 0, k.NR, k.NR, 0, kc)
		c := make([]uint32, k.MR*k.NR)
		k.Fn(kc, ap, bp, c, k.NR)
		once := make([]uint32, len(c))
		copy(once, c)
		k.Fn(kc, ap, bp, c, k.NR)
		for i := range c {
			if c[i] != 2*once[i] {
				t.Fatalf("%s: accumulation broken at %d: %d after two calls, %d after one", k.Name, i, c[i], once[i])
			}
		}
	}
}

func TestKernelsRespectLdc(t *testing.T) {
	// With ldc > NR, the gap columns must stay untouched.
	rng := rand.New(rand.NewSource(11))
	for _, k := range Fixed {
		a := randomMatrix(rng, k.MR, 64)
		b := randomMatrix(rng, k.NR, 64)
		kc := a.Words
		ap := make([]uint64, kc*k.MR)
		bp := make([]uint64, kc*k.NR)
		PackPanel(ap, a, 0, k.MR, k.MR, 0, kc)
		PackPanel(bp, b, 0, k.NR, k.NR, 0, kc)
		ldc := k.NR + 3
		c := make([]uint32, k.MR*ldc)
		sentinel := uint32(0xdeadbeef)
		for i := 0; i < k.MR; i++ {
			for j := k.NR; j < ldc; j++ {
				c[i*ldc+j] = sentinel
			}
		}
		k.Fn(kc, ap, bp, c, ldc)
		for i := 0; i < k.MR; i++ {
			for j := k.NR; j < ldc; j++ {
				if c[i*ldc+j] != sentinel {
					t.Fatalf("%s: wrote outside tile at (%d,%d)", k.Name, i, j)
				}
			}
			for j := 0; j < k.NR; j++ {
				want := uint32(popcount.AndCount(a.SNP(i), b.SNP(j)))
				if c[i*ldc+j] != want {
					t.Fatalf("%s: C[%d,%d] = %d, want %d", k.Name, i, j, c[i*ldc+j], want)
				}
			}
		}
	}
}

func TestGenericMatchesFixedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, k := range Fixed {
		g := Generic(k.MR, k.NR)
		a := randomMatrix(rng, k.MR, 200)
		b := randomMatrix(rng, k.NR, 200)
		got := runKernel(k, a, b)
		want := runKernel(g, a, b)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s vs %s: cell %d: %d vs %d", k.Name, g.Name, i, got[i], want[i])
			}
		}
	}
}

func TestPackPanelZeroPadding(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randomMatrix(rng, 3, 128) // 2 words per SNP
	const rr = 4
	dst := make([]uint64, m.Words*rr)
	for i := range dst {
		dst[i] = ^uint64(0) // must be overwritten
	}
	PackPanel(dst, m, 0, 3, rr, 0, m.Words)
	for l := 0; l < m.Words; l++ {
		for i := 0; i < 3; i++ {
			if dst[l*rr+i] != m.SNP(i)[l] {
				t.Fatalf("packed word (%d,%d) mismatch", l, i)
			}
		}
		if dst[l*rr+3] != 0 {
			t.Fatalf("padding row not zeroed at word %d", l)
		}
	}
}

func TestPackPanelSubrange(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m := randomMatrix(rng, 6, 64*5)
	const rr, pc, kc = 2, 1, 3
	dst := make([]uint64, kc*rr)
	PackPanel(dst, m, 4, 2, rr, pc, kc)
	for l := 0; l < kc; l++ {
		for i := 0; i < rr; i++ {
			if dst[l*rr+i] != m.SNP(4 + i)[pc+l] {
				t.Fatalf("subrange pack (%d,%d) mismatch", l, i)
			}
		}
	}
}

// Property: every fixed kernel agrees with popcount.AndCount on random
// panels of random depth, including kc == 0.
func TestQuickKernels(t *testing.T) {
	for _, k := range Fixed {
		k := k
		f := func(seed int64, words8 uint8) bool {
			kc := int(words8 % 9) // 0..8 words
			rng := rand.New(rand.NewSource(seed))
			a := randomMatrix(rng, k.MR, kc*64)
			b := randomMatrix(rng, k.NR, kc*64)
			got := runKernel(k, a, b)
			for i := 0; i < k.MR; i++ {
				for j := 0; j < k.NR; j++ {
					if got[i*k.NR+j] != uint32(popcount.AndCount(a.SNP(i), b.SNP(j))) {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}
