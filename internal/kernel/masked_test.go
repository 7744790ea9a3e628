package kernel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ldgemm/internal/bitmat"
)

// randomMasked builds a random matrix plus mask with the s = s & c
// invariant applied.
func randomMasked(rng *rand.Rand, snps, samples int) (*bitmat.Matrix, *bitmat.Mask) {
	m := randomMatrix(rng, snps, samples)
	k := bitmat.NewMask(snps, samples)
	for i := 0; i < snps; i++ {
		for s := 0; s < samples; s++ {
			if rng.Intn(4) == 0 {
				k.Invalidate(i, s)
			}
		}
	}
	if err := k.ApplyTo(m); err != nil {
		panic(err)
	}
	return m, k
}

// referenceMasked computes the four Section VII counts directly.
func referenceMasked(m *bitmat.Matrix, k *bitmat.Mask, i, j int) [4]uint32 {
	var out [4]uint32
	for s := 0; s < m.Samples; s++ {
		if !k.Bit(i, s) || !k.Bit(j, s) {
			continue
		}
		out[MaskedValid]++
		bi, bj := m.Bit(i, s), m.Bit(j, s)
		if bi {
			out[MaskedI]++
		}
		if bj {
			out[MaskedJ]++
		}
		if bi && bj {
			out[MaskedIJ]++
		}
	}
	return out
}

func runMasked(mk MaskedKernel, m *bitmat.Matrix, k *bitmat.Mask) []uint32 {
	kc := m.Words
	ap := make([]uint64, 2*kc*mk.MR)
	bp := make([]uint64, 2*kc*mk.NR)
	PackMaskedPanel(ap, m, k, 0, min(m.SNPs, mk.MR), mk.MR, 0, kc)
	PackMaskedPanel(bp, m, k, 0, min(m.SNPs, mk.NR), mk.NR, 0, kc)
	c := make([]uint32, mk.MR*mk.NR*4)
	mk.Fn(kc, ap, bp, c, mk.NR)
	return c
}

func TestMaskedKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, mk := range []MaskedKernel{MaskedGeneric(2, 2), MaskedGeneric(3, 5), Masked2x2()} {
		m, k := randomMasked(rng, max(mk.MR, mk.NR), 200)
		got := runMasked(mk, m, k)
		for i := 0; i < mk.MR && i < m.SNPs; i++ {
			for j := 0; j < mk.NR && j < m.SNPs; j++ {
				want := referenceMasked(m, k, i, j)
				for tcount := 0; tcount < 4; tcount++ {
					if got[(i*mk.NR+j)*4+tcount] != want[tcount] {
						t.Errorf("%s: cell (%d,%d) count %d = %d, want %d",
							mk.Name, i, j, tcount, got[(i*mk.NR+j)*4+tcount], want[tcount])
					}
				}
			}
		}
	}
}

func TestMaskedPaddingRowsAreZero(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	mk := Masked2x2()
	// Only one real SNP; row 1 of each panel is padding.
	m, k := randomMasked(rng, 1, 100)
	got := runMasked(mk, m, k)
	for _, cell := range [][2]int{{0, 1}, {1, 0}, {1, 1}} {
		for tcount := 0; tcount < 4; tcount++ {
			if got[(cell[0]*mk.NR+cell[1])*4+tcount] != 0 {
				t.Fatalf("padding cell %v count %d nonzero", cell, tcount)
			}
		}
	}
}

func TestQuickMasked2x2MatchesGeneric(t *testing.T) {
	g := MaskedGeneric(2, 2)
	u := Masked2x2()
	f := func(seed int64, words8 uint8) bool {
		kc := int(words8%6) + 1
		rng := rand.New(rand.NewSource(seed))
		m, k := randomMasked(rng, 2, kc*64)
		a := runMasked(u, m, k)
		b := runMasked(g, m, k)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
