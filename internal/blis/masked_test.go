package blis

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/kernel"
)

// MirrorMasked copies the strict upper triangle of an n×n four-count
// matrix onto the strict lower triangle, MaskedI and MaskedJ exchanging
// roles so that cell (j, i) reads correctly: the masked tests' oracle for
// the lower triangle MaskedSyrk leaves unwritten.
func MirrorMasked(c []uint32, n, ldc int) {
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			src := c[(j*ldc+i)*4:]
			dst := c[(i*ldc+j)*4:]
			dst[kernel.MaskedValid] = src[kernel.MaskedValid]
			dst[kernel.MaskedI] = src[kernel.MaskedJ]
			dst[kernel.MaskedJ] = src[kernel.MaskedI]
			dst[kernel.MaskedIJ] = src[kernel.MaskedIJ]
		}
	}
}

func randomMasked(rng *rand.Rand, snps, samples int) (*bitmat.Matrix, *bitmat.Mask) {
	m := randomMatrix(rng, snps, samples)
	k := bitmat.NewMask(snps, samples)
	for i := 0; i < snps; i++ {
		for s := 0; s < samples; s++ {
			if rng.Intn(5) == 0 {
				k.Invalidate(i, s)
			}
		}
	}
	if err := k.ApplyTo(m); err != nil {
		panic(err)
	}
	return m, k
}

func TestMaskedGemmMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct{ m, n, samples int }{
		{1, 1, 10}, {3, 5, 64}, {17, 9, 130}, {40, 40, 333},
	}
	for _, sh := range shapes {
		a, ka := randomMasked(rng, sh.m, sh.samples)
		b, kb := randomMasked(rng, sh.n, sh.samples)
		got := make([]uint32, sh.m*sh.n*4)
		cfg := Config{MC: 7, NC: 9, KC: 2, Threads: 3}
		if err := MaskedGemm(cfg, a, b, ka, kb, got, sh.n); err != nil {
			t.Fatal(err)
		}
		want := make([]uint32, sh.m*sh.n*4)
		if err := MaskedReference(a, b, ka, kb, want, sh.n); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: masked C[%d] = %d, want %d", sh, i, got[i], want[i])
			}
		}
	}
}

func TestMaskedGemmErrors(t *testing.T) {
	a, ka := randomMasked(rand.New(rand.NewSource(2)), 3, 10)
	b, kb := randomMasked(rand.New(rand.NewSource(3)), 3, 12)
	if err := MaskedGemm(Config{}, a, b, ka, kb, make([]uint32, 36), 3); err == nil {
		t.Fatal("sample mismatch accepted")
	}
	b, kb = randomMasked(rand.New(rand.NewSource(3)), 3, 10)
	if err := MaskedGemm(Config{}, a, b, ka, kb, make([]uint32, 35), 3); err == nil {
		t.Fatal("short C accepted")
	}
	wrongMask := bitmat.NewMask(4, 10)
	if err := MaskedGemm(Config{}, a, b, wrongMask, kb, make([]uint32, 36), 3); err == nil {
		t.Fatal("mask shape mismatch accepted")
	}
}

func TestMaskedSyrk(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, ka := randomMasked(rng, 25, 200)
	got := make([]uint32, 25*25*4)
	if err := MaskedSyrk(Config{MC: 6, NC: 10, KC: 1, Threads: 2}, a, ka, got, 25); err != nil {
		t.Fatal(err)
	}
	want := make([]uint32, 25*25*4)
	if err := MaskedReference(a, a, ka, ka, want, 25); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		for j := i; j < 25; j++ {
			for tc := 0; tc < 4; tc++ {
				if got[(i*25+j)*4+tc] != want[(i*25+j)*4+tc] {
					t.Fatalf("cell (%d,%d) count %d mismatch", i, j, tc)
				}
			}
		}
	}
}

func TestMaskedFullMaskEqualsUnmasked(t *testing.T) {
	// With an all-valid mask, MaskedIJ must equal the plain Gemm counts and
	// MaskedValid must equal the sample count.
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 12, 190)
	b := randomMatrix(rng, 8, 190)
	ka, kb := bitmat.NewMask(12, 190), bitmat.NewMask(8, 190)
	masked := make([]uint32, 12*8*4)
	if err := MaskedGemm(Config{}, a, b, ka, kb, masked, 8); err != nil {
		t.Fatal(err)
	}
	plain := make([]uint32, 12*8)
	if err := Gemm(Config{}, a, b, plain, 8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		for j := 0; j < 8; j++ {
			cell := masked[(i*8+j)*4:]
			if cell[3] != plain[i*8+j] {
				t.Fatalf("(%d,%d): MaskedIJ %d != plain %d", i, j, cell[3], plain[i*8+j])
			}
			if cell[0] != 190 {
				t.Fatalf("(%d,%d): MaskedValid = %d, want 190", i, j, cell[0])
			}
		}
	}
}

func TestQuickMaskedGemm(t *testing.T) {
	f := func(seed int64, m8, n8, s8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(m8%20) + 1
		n := int(n8%20) + 1
		samples := int(s8)*2 + 1
		a, ka := randomMasked(rng, m, samples)
		b, kb := randomMasked(rng, n, samples)
		cfg := Config{MC: int(uint64(seed)%13) + 1, NC: int(uint64(seed)%17) + 1, KC: 2, Threads: 2}
		got := make([]uint32, m*n*4)
		if err := MaskedGemm(cfg, a, b, ka, kb, got, n); err != nil {
			return false
		}
		want := make([]uint32, m*n*4)
		if err := MaskedReference(a, b, ka, kb, want, n); err != nil {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskedSyrkMirrorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 7, 33} {
		a, ka := randomMasked(rng, n, 150)
		got := make([]uint32, n*n*4)
		if err := MaskedSyrk(Config{MC: 5, NC: 6, KC: 1, Threads: 2}, a, ka, got, n); err != nil {
			t.Fatal(err)
		}
		MirrorMasked(got, n, n)
		want := make([]uint32, n*n*4)
		if err := MaskedReference(a, a, ka, ka, want, n); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: mirrored masked syrk mismatch at %d: %d vs %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestMaskedSyrkValidation(t *testing.T) {
	a, ka := randomMasked(rand.New(rand.NewSource(10)), 3, 20)
	if err := MaskedSyrk(Config{}, a, ka, make([]uint32, 35), 3); err == nil {
		t.Fatal("short C accepted")
	}
	wrong := bitmat.NewMask(4, 20)
	if err := MaskedSyrk(Config{}, a, wrong, make([]uint32, 36), 3); err == nil {
		t.Fatal("mask shape mismatch accepted")
	}
}

// TestMaskedEvenTileAnyConfig: the masked entry points run the default
// kernel over the interleaved rows whatever kernel and blocking the config
// names, so an odd register tile (Generic 3×5), odd MC and NC, an odd SNP
// count and samples off a whole word still count every pair right, and
// every run a fused call hands over starts on MaskedTile's grid — with the
// tile on and off, streamed (one slab) and over several slabs, on one
// worker and on four.
func TestMaskedEvenTileAnyConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const m, n = 13, 11
	check := func(t *testing.T) {
		mr, nr := MaskedTile()
		for _, samples := range []int{64*3 + 17, 64*CSAMinWords + 9} {
			a, ka := randomMasked(rng, m, samples)
			b, kb := randomMasked(rng, n, samples)
			gemmWant := make([]uint32, m*n*4)
			if err := MaskedReference(a, b, ka, kb, gemmWant, n); err != nil {
				t.Fatal(err)
			}
			syrkWant := make([]uint32, n*n*4)
			if err := MaskedReference(b, b, kb, kb, syrkWant, n); err != nil {
				t.Fatal(err)
			}
			for _, bl := range []Config{{MC: 5, NC: 7, KC: 2}, {KC: 64}} {
				for _, threads := range []int{1, 4} {
					cfg := bl
					cfg.Kernel, cfg.Threads = kernel.Generic(3, 5), threads
					name := fmt.Sprintf("%d samples, %+v", samples, cfg)
					// collect is a fused hook that checks each run's origin
					// and copies its cells into got.
					collect := func(got []uint32) TileEpilogue {
						return func(_ int, tile []uint32, ldt, i0, j0, mm, nn int) {
							if i0%mr != 0 || j0%nr != 0 || mm > mr || j0+nn > n {
								t.Errorf("%s: run (%d, %d) %d×%d off the %d×%d masked tile grid", name, i0, j0, mm, nn, mr, nr)
								return
							}
							for r := 0; r < mm; r++ {
								copy(got[((i0+r)*n+j0)*4:][:nn*4], tile[r*ldt*4:][:nn*4])
							}
						}
					}
					upper := func(got []uint32) []uint32 {
						for i := 0; i < n; i++ {
							clear(got[i*n*4 : (i*n+i)*4])
						}
						return got
					}

					got := make([]uint32, m*n*4)
					if err := MaskedGemm(cfg, a, b, ka, kb, got, n); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, gemmWant) {
						t.Errorf("%s: MaskedGemm differs from MaskedReference", name)
					}
					got = make([]uint32, m*n*4)
					if err := MaskedGemmEpilogue(cfg, a, b, ka, kb, collect(got)); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, gemmWant) {
						t.Errorf("%s: MaskedGemmEpilogue differs from MaskedReference", name)
					}
					got = make([]uint32, n*n*4)
					if err := MaskedSyrk(cfg, b, kb, got, n); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(upper(got), upper(slices.Clone(syrkWant))) {
						t.Errorf("%s: MaskedSyrk's upper triangle differs from MaskedReference", name)
					}
					got = make([]uint32, n*n*4)
					if err := MaskedSyrkEpilogue(cfg, b, kb, collect(got)); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(upper(got), upper(slices.Clone(syrkWant))) {
						t.Errorf("%s: MaskedSyrkEpilogue's upper triangle differs from MaskedReference", name)
					}
				}
			}
		}
	}
	t.Run("host-default", check)
	if kernel.Default.Lanes > 1 {
		defer kernel.DisableVectorTileForTest()()
		t.Run("portable", check)
	}
}

// TestMaskedEpilogueCounters: the epilogue counters count only a caller's
// epilogue. A MaskedSyrk that writes its four-count matrix runs through
// the driver's fused route but adds to none of EpilogueTiles,
// EpilogueNanos and EpilogueBytesAvoided; MaskedSyrkEpilogue adds the
// n·n·16 bytes of the four-count matrix it never wrote.
func TestMaskedEpilogueCounters(t *testing.T) {
	const n = 37
	a, ka := randomMasked(rand.New(rand.NewSource(48)), n, 300)
	cfg := Config{Threads: 2}
	before := ReadStats()
	if err := MaskedSyrk(cfg, a, ka, make([]uint32, n*n*4), n); err != nil {
		t.Fatal(err)
	}
	after := ReadStats()
	if after.EpilogueTiles != before.EpilogueTiles || after.EpilogueNanos != before.EpilogueNanos ||
		after.EpilogueBytesAvoided != before.EpilogueBytesAvoided {
		t.Fatalf("a materialized MaskedSyrk moved the epilogue counters: tiles +%d, ns +%d, bytes +%d",
			after.EpilogueTiles-before.EpilogueTiles, after.EpilogueNanos-before.EpilogueNanos,
			after.EpilogueBytesAvoided-before.EpilogueBytesAvoided)
	}
	before = after
	var runs atomic.Int64
	err := MaskedSyrkEpilogue(cfg, a, ka, TileEpilogue(func(int, []uint32, int, int, int, int, int) { runs.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	after = ReadStats()
	if got := after.EpilogueBytesAvoided - before.EpilogueBytesAvoided; got != n*n*16 {
		t.Fatalf("MaskedSyrkEpilogue added %d to EpilogueBytesAvoided, want %d", got, n*n*16)
	}
	if runs.Load() == 0 || after.EpilogueTiles == before.EpilogueTiles {
		t.Fatalf("MaskedSyrkEpilogue: %d runs, %d tiles counted", runs.Load(), after.EpilogueTiles-before.EpilogueTiles)
	}
}
