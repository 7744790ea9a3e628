package bufpool

import (
	"math"
	"testing"
)

func TestClassRounding(t *testing.T) {
	for _, c := range []struct{ n, cap int }{
		{1, 64}, {64, 64}, {65, 128}, {1000, 1024}, {1 << 20, 1 << 20}, {1<<20 + 1, 1 << 21},
	} {
		if got := Floats.Get(c.n); len(got) != c.n || cap(got) != c.cap {
			t.Errorf("Get(%d): len %d cap %d, want cap %d", c.n, len(got), cap(got), c.cap)
		}
	}
	if got := Bytes.Get(0); got == nil || len(got) != 0 {
		t.Errorf("Get(0) = %v, want an empty non-nil slice", got)
	}
	if huge := 1<<maxClass + 1; cap(Bytes.Get(huge)) != huge {
		t.Errorf("a buffer above the largest class is not a plain allocation")
	}
}

// TestPoisonedRelease: under the checked mode a release overwrites the
// buffer, the next Get of its class returns that same buffer, and a second
// release of it panics.
func TestPoisonedRelease(t *testing.T) {
	PoisonForTest(true)
	defer PoisonForTest(false)

	f := Floats.Get(100)
	for i := range f {
		f[i] = float64(i)
	}
	Floats.Put(f)
	for i, v := range f[:cap(f)] {
		if !math.IsNaN(v) {
			t.Fatalf("released float %d reads %v, want the NaN pattern", i, v)
		}
	}
	again := Floats.Get(70)
	if &again[0] != &f[0] {
		t.Fatal("the next Get of the class did not reuse the released buffer")
	}

	b := Bytes.Get(10)
	Bytes.Put(b)
	if b[:1][0] != 0xff {
		t.Fatalf("released byte reads %#x, want 0xff", b[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a buffer twice did not panic")
		}
	}()
	Bytes.Put(b)
}

// TestPutDropsForeignCapacities: only a class capacity is pooled.
func TestPutDropsForeignCapacities(t *testing.T) {
	PoisonForTest(true)
	defer PoisonForTest(false)
	odd := make([]byte, 100)
	Bytes.Put(odd)
	if odd[0] == 0xff {
		t.Fatal("a buffer of capacity 100 was taken into the pool")
	}
	Bytes.Put(odd) // dropped again, so no double-release panic
}

func BenchmarkGetPut(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		Floats.Put(Floats.Get(128 * 128))
	}
}
