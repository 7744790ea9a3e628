package cluster

import (
	"container/list"
	"net/http"
	"sync"

	"ldgemm/internal/server"
)

// cacheable reports whether a response may be admitted to the result
// cache. Only complete 200 answers qualify: for a fixed dataset
// fingerprint they are immutable, so they can live until the coordinator
// is rebootstrapped against a new fingerprint. Partial answers reflect a
// transient outage and errors reflect transient or caller state — caching
// either would pin a bad answer forever.
func cacheable(resp *server.Response) bool {
	return resp.Status == http.StatusOK && resp.Failed == ""
}

// cacheEntryOverhead approximates the bookkeeping cost of one entry
// (map slot, list element, struct headers) so many tiny bodies cannot
// blow past the byte budget through accounting that only sees payloads.
const cacheEntryOverhead = 128

// resultCache is the coordinator's fingerprint-keyed LRU over complete
// responses. Admission is cost-aware: every entry is charged its body
// and key bytes plus fixed overhead against a byte capacity, entries
// costing more than maxEntryFraction of the capacity are refused
// outright (one giant region must not evict the whole working set), and
// the least-recently-used entries are evicted until the budget holds.
// Entries never expire by time — responses are immutable for a given
// dataset fingerprint, and the fingerprint is part of every key — so
// invalidation happens only by rebootstrapping against a new dataset.
type resultCache struct {
	mu      sync.Mutex
	cap     int64
	bytes   int64
	entries map[string]*list.Element
	lru     *list.List // front = most recently used

	hits, misses, evictions, rejected int64
}

// maxEntryFraction caps a single entry at 1/8 of the cache capacity.
const maxEntryFraction = 8

type cacheEntry struct {
	key  string
	resp *server.Response
	cost int64
}

func newResultCache(capBytes int64) *resultCache {
	return &resultCache{cap: capBytes, entries: make(map[string]*list.Element), lru: list.New()}
}

// get returns the cached response for key, refreshing its recency.
func (c *resultCache) get(key string) (*server.Response, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).resp, true
}

// put admits resp under key, evicting least-recently-used entries until
// the byte budget holds. Oversized entries are rejected.
func (c *resultCache) put(key string, resp *server.Response) {
	cost := int64(len(resp.Body)+len(key)) + cacheEntryOverhead
	c.mu.Lock()
	defer c.mu.Unlock()
	if cost > c.cap/maxEntryFraction {
		c.rejected++
		return
	}
	if el, ok := c.entries[key]; ok {
		// Replace in place (same key can race through the singleflight
		// boundary); the body is identical by construction, but keep the
		// accounting exact anyway.
		c.bytes += cost - el.Value.(*cacheEntry).cost
		el.Value = &cacheEntry{key: key, resp: resp, cost: cost}
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, resp: resp, cost: cost})
		c.bytes += cost
	}
	for c.bytes > c.cap {
		back := c.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.cost
		c.evictions++
	}
}

// cacheStats is a point-in-time snapshot for /debug/vars.
type cacheStats struct {
	Hits, Misses, Bytes, Entries, Evictions, Rejected int64
}

func (c *resultCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Hits: c.hits, Misses: c.misses, Bytes: c.bytes,
		Entries: int64(len(c.entries)), Evictions: c.evictions, Rejected: c.rejected,
	}
}
