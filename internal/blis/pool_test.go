package blis

import (
	"math/bits"
	"testing"
)

// TestArenaGrowsGeometrically: one arena prepared for panels that widen one
// micro-panel at a time — a pooled arena serving ever wider windows —
// reallocates its packed-B buffer and its strip a logarithmic number of
// times, not once a width, and always hands back exactly the length asked.
func TestArenaGrowsGeometrically(t *testing.T) {
	const mr, nr, kc, panels = 8, 8, 256, 512
	var a arena
	var bpackAllocs, stripAllocs int
	for p := 1; p <= panels; p++ {
		bcap, scap := cap(a.bpack), 0
		if len(a.ws) > 0 {
			scap = cap(a.ws[0].strip)
		}
		a.prepare(1, p*nr*kc, mr*kc, mr*nr, mr*p*nr)
		if len(a.bpack) != p*nr*kc || len(a.ws[0].strip) != mr*p*nr {
			t.Fatalf("width %d: bpack %d, strip %d words, want %d and %d", p*nr, len(a.bpack), len(a.ws[0].strip), p*nr*kc, mr*p*nr)
		}
		if cap(a.bpack) != bcap {
			bpackAllocs++
		}
		if cap(a.ws[0].strip) != scap {
			stripAllocs++
		}
	}
	// The first allocation, then one each time the width passes a power
	// of two: log₂(512) = 9 doublings.
	if limit := bits.Len(panels); bpackAllocs > limit || stripAllocs > limit {
		t.Fatalf("%d widths: %d bpack and %d strip allocations, want at most %d each", panels, bpackAllocs, stripAllocs, limit)
	}
	t.Logf("%d widths: %d bpack and %d strip allocations", panels, bpackAllocs, stripAllocs)
}
