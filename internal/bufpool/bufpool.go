// Package bufpool recycles the buffers whose life ends with one request:
// a region's floats, the reply bytes they are spelled into, a tile row's
// widened counts between its read and its conversion, a shard's reply
// between its arrival and the merge. It is the serving tiers' counterpart of the pack
// arena under the driver (internal/blis): memory that is written, read
// once, and handed back instead of left to the collector.
//
// A Pool keeps one sync.Pool per power-of-two capacity. Get(n) returns a
// slice of length n and capacity the class above n, with whatever contents
// its last user left; Put hands a slice back by its capacity. The rule
// every caller keeps (DESIGN.md, "Float payloads"): a pooled buffer has one
// owner, it goes back exactly once, after its last read, and never while
// anything shared — a cache, a coalesced result — can still reach it. A
// buffer that is dropped instead is garbage, not a bug.
package bufpool

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// minClass is the smallest class pooled: anything shorter is rounded
	// up to 64 elements.
	minClass = 6
	// maxClass is the largest: a Get above 1<<maxClass elements is a plain
	// allocation, and Put drops it.
	maxClass = 24
)

// Pool recycles []T buffers in power-of-two size classes. The zero value
// is ready to use; a Pool must not be copied.
type Pool[T any] struct {
	classes [maxClass + 1]sync.Pool // each holds the first element's address
	held    [maxClass + 1]heldList  // the poisoned mode's free lists
}

// Bytes and Floats are the pools every package shares: a buffer one
// package takes may be handed back by another.
var (
	Bytes  Pool[byte]
	Floats Pool[float64]
)

// class returns the size class holding n elements.
func class(n int) int {
	return max(minClass, bits.Len(uint(n-1)))
}

// Get returns a buffer of length n. Its contents are unspecified: the
// caller writes every element it reads.
func (p *Pool[T]) Get(n int) []T {
	if n <= 0 {
		return []T{}
	}
	c := class(n)
	if c > maxClass {
		return make([]T, n)
	}
	var ptr unsafe.Pointer
	if poisoned.Load() {
		ptr = p.held[c].pop()
	} else if v := p.classes[c].Get(); v != nil {
		ptr = v.(unsafe.Pointer)
	}
	if ptr == nil {
		return make([]T, n, 1<<c)
	}
	return unsafe.Slice((*T)(ptr), 1<<c)[:n]
}

// Put hands s back for reuse. Only a buffer whose capacity is exactly a
// pooled class is kept; anything else is dropped. After Put the caller
// must not touch s or any slice of it.
func (p *Pool[T]) Put(s []T) {
	c := cap(s)
	if c < 1<<minClass || c > 1<<maxClass || c&(c-1) != 0 {
		return
	}
	s = s[:c]
	ptr := unsafe.Pointer(unsafe.SliceData(s))
	k := bits.TrailingZeros(uint(c))
	if poisoned.Load() {
		poison(s)
		p.held[k].push(ptr)
		return
	}
	p.classes[k].Put(ptr)
}

// poisoned switches every Pool to checked free lists: Put overwrites the
// buffer with a fixed pattern and panics on a buffer already handed back,
// and Get reuses the most recently released buffer first, so a reader
// still holding a released buffer sees its next owner's bytes or the
// pattern instead of its own.
var poisoned atomic.Bool

// PoisonForTest turns the checked free lists on or off. Tests of the
// serving tiers turn it on under the race detector; nothing else calls it.
func PoisonForTest(on bool) { poisoned.Store(on) }

// heldCap bounds a checked free list; the oldest entry is dropped beyond it.
const heldCap = 16

type heldList struct {
	mu  sync.Mutex
	buf []unsafe.Pointer
}

func (h *heldList) push(ptr unsafe.Pointer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if slices.Contains(h.buf, ptr) {
		panic("bufpool: buffer released twice")
	}
	if len(h.buf) == heldCap {
		h.buf = slices.Delete(h.buf, 0, 1)
	}
	h.buf = append(h.buf, ptr)
}

func (h *heldList) pop() unsafe.Pointer {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.buf) == 0 {
		return nil
	}
	ptr := h.buf[len(h.buf)-1]
	h.buf = h.buf[:len(h.buf)-1]
	return ptr
}

// poison overwrites a released buffer: all-ones bits, which is a NaN as a
// float64 (the reply encoder refuses it) and not JSON as a byte. A buffer
// of pointers is cleared instead.
func poison[T any](s []T) {
	switch v := any(s).(type) {
	case []byte:
		for i := range v {
			v[i] = 0xff
		}
	case []float64:
		for i := range v {
			v[i] = math.Float64frombits(^uint64(0))
		}
	default:
		clear(s)
	}
}
