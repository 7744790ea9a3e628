package bitmat

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewMaskAllValid(t *testing.T) {
	k := NewMask(3, 70)
	for i := 0; i < 3; i++ {
		if got := k.ValidCount(i); got != 70 {
			t.Fatalf("ValidCount(%d) = %d, want 70", i, got)
		}
	}
	if err := k.ValidatePadding(); err != nil {
		t.Fatalf("mask padding invariant violated: %v", err)
	}
}

func TestMaskInvalidateValidate(t *testing.T) {
	k := NewMask(2, 100)
	k.Invalidate(0, 64)
	k.Invalidate(0, 65)
	if got := k.ValidCount(0); got != 98 {
		t.Fatalf("ValidCount = %d, want 98", got)
	}
	k.Validate(0, 64)
	if got := k.ValidCount(0); got != 99 {
		t.Fatalf("ValidCount = %d, want 99", got)
	}
	if got := k.ValidCount(1); got != 100 {
		t.Fatalf("other SNP affected: %d", got)
	}
}

func TestPairValidCount(t *testing.T) {
	k := NewMask(2, 10)
	k.Invalidate(0, 1)
	k.Invalidate(0, 2)
	k.Invalidate(1, 2)
	k.Invalidate(1, 3)
	// valid at both: 10 - {1,2,3} = 7
	if got := k.PairValidCount(0, 1); got != 7 {
		t.Fatalf("PairValidCount = %d, want 7", got)
	}
	if got := k.PairValidCount(0, 0); got != 8 {
		t.Fatalf("PairValidCount(i,i) = %d, want 8", got)
	}
}

func TestMaskApplyTo(t *testing.T) {
	m := New(2, 10)
	for s := 0; s < 10; s++ {
		m.SetBit(0, s)
	}
	k := NewMask(2, 10)
	k.Invalidate(0, 4)
	k.Invalidate(0, 7)
	if err := k.ApplyTo(m); err != nil {
		t.Fatal(err)
	}
	if m.Bit(0, 4) || m.Bit(0, 7) {
		t.Fatal("invalid bits not cleared")
	}
	if got := m.DerivedCount(0); got != 8 {
		t.Fatalf("DerivedCount = %d, want 8", got)
	}
	if err := k.ApplyTo(New(3, 10)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

// TestMaskInterleave: SNP 2i of the interleaved matrix is SNP i masked,
// SNP 2i+1 the mask itself, and the input matrix is left as it was.
func TestMaskInterleave(t *testing.T) {
	m := New(2, 70)
	for s := 0; s < 70; s += 3 {
		m.SetBit(0, s)
		m.SetBit(1, 69-s)
	}
	before := m.Clone()
	k := NewMask(2, 70)
	for s := 0; s < 70; s += 5 {
		k.Invalidate(s%2, s)
	}
	x := k.Interleave(m)
	if x.SNPs != 4 || x.Samples != 70 {
		t.Fatalf("interleaved shape %dx%d, want 4x70", x.SNPs, x.Samples)
	}
	for i := 0; i < 2; i++ {
		for s := 0; s < 70; s++ {
			if got, want := x.Bit(2*i, s), m.Bit(i, s) && k.Bit(i, s); got != want {
				t.Fatalf("value row of SNP %d, sample %d = %v, want %v", i, s, got, want)
			}
			if got, want := x.Bit(2*i+1, s), k.Bit(i, s); got != want {
				t.Fatalf("mask row of SNP %d, sample %d = %v, want %v", i, s, got, want)
			}
		}
	}
	if !slices.Equal(m.Data, before.Data) {
		t.Fatal("Interleave modified its input")
	}
}

func TestMaskFromColumns(t *testing.T) {
	k, err := MaskFromColumns([][]byte{{1, 0, 1}, {1, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if k.ValidCount(0) != 2 || k.ValidCount(1) != 2 {
		t.Fatal("wrong valid counts")
	}
	if k.PairValidCount(0, 1) != 1 {
		t.Fatalf("PairValidCount = %d", k.PairValidCount(0, 1))
	}
}

// Property: PairValidCount(i,j) equals a direct per-sample intersection
// count, for random masks including ones that cross word boundaries.
func TestQuickPairValidCount(t *testing.T) {
	f := func(seed int64, samples8 uint8) bool {
		samples := int(samples8%150) + 1
		rng := rand.New(rand.NewSource(seed))
		k := NewMask(2, samples)
		valid := make([][2]bool, samples)
		for s := 0; s < samples; s++ {
			for j := 0; j < 2; j++ {
				valid[s][j] = rng.Intn(3) > 0
				if !valid[s][j] {
					k.Invalidate(j, s)
				}
			}
		}
		want := 0
		for s := 0; s < samples; s++ {
			if valid[s][0] && valid[s][1] {
				want++
			}
		}
		return k.PairValidCount(0, 1) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
