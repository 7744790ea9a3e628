package ldstore

import (
	"container/list"
	"sync"
)

// lru is a mutex-guarded LRU over decoded tiles, keyed by tile index
// position. Capacity is counted in tiles, so the resident bound is cap ×
// the largest decoded tile. Concurrent misses on one tile may both load
// it; the second put just refreshes the entry, which is correct because
// tiles are immutable.
type lru struct {
	mu       sync.Mutex
	cap      int
	entries  map[int64]*list.Element
	order    *list.List // front = most recently used
	counters *counters
}

type lruEntry struct {
	id   int64
	tile tile
}

func newLRU(capTiles int, ctr *counters) *lru {
	return &lru{
		cap:      capTiles,
		entries:  make(map[int64]*list.Element),
		order:    list.New(),
		counters: ctr,
	}
}

// get returns the cached tile and records a hit or miss.
func (c *lru) get(id int64) (tile, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[id]; ok {
		c.order.MoveToFront(el)
		c.counters.cacheHits.Add(1)
		return el.Value.(*lruEntry).tile, true
	}
	c.counters.cacheMisses.Add(1)
	return tile{}, false
}

// put inserts a freshly decoded tile, evicting from the cold end past
// capacity.
func (c *lru) put(id int64, t tile) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[id]; ok {
		el.Value.(*lruEntry).tile = t
		c.order.MoveToFront(el)
		return
	}
	c.entries[id] = c.order.PushFront(&lruEntry{id: id, tile: t})
	for c.order.Len() > c.cap {
		back := c.order.Back()
		delete(c.entries, back.Value.(*lruEntry).id)
		c.order.Remove(back)
		c.counters.evictions.Add(1)
	}
}
