package tilefile

import (
	"container/list"
	"sync"
)

// lru is a mutex-guarded LRU over decoded tiles, keyed by tile index
// position. Capacity is counted in tiles, so the resident bound is cap ×
// the largest decoded tile. Concurrent misses on one tile may both load
// it; the second put just refreshes the entry, which is correct because
// tiles are immutable.
type lru[T any] struct {
	mu       sync.Mutex
	cap      int
	entries  map[int64]*list.Element
	order    *list.List // front = most recently used
	counters *Counters
}

type lruEntry[T any] struct {
	id   int64
	tile T
}

func newLRU[T any](capTiles int, ctr *Counters) *lru[T] {
	return &lru[T]{
		cap:      capTiles,
		entries:  make(map[int64]*list.Element),
		order:    list.New(),
		counters: ctr,
	}
}

// get returns the cached tile and records a hit or miss.
func (c *lru[T]) get(id int64) (T, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[id]; ok {
		c.order.MoveToFront(el)
		c.counters.CacheHits.Add(1)
		return el.Value.(*lruEntry[T]).tile, true
	}
	c.counters.CacheMisses.Add(1)
	var zero T
	return zero, false
}

// put inserts a freshly decoded tile, evicting from the cold end past
// capacity.
func (c *lru[T]) put(id int64, tile T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[id]; ok {
		el.Value.(*lruEntry[T]).tile = tile
		c.order.MoveToFront(el)
		return
	}
	c.entries[id] = c.order.PushFront(&lruEntry[T]{id: id, tile: tile})
	for c.order.Len() > c.cap {
		back := c.order.Back()
		delete(c.entries, back.Value.(*lruEntry[T]).id)
		c.order.Remove(back)
		c.counters.Evictions.Add(1)
	}
}
