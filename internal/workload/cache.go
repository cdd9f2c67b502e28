package workload

import "skv/internal/ring"

// cache is the bounded invalidation-coherent client cache behind tracked
// GETs. Eviction is FIFO by first insertion (no map iteration — eviction
// order must be deterministic across runs). The cache itself is dumb
// storage: coherence comes from the owner dropping entries on invalidation
// pushes, redirects, and reconnects.
type cache struct {
	max int
	m   map[string][]byte
	// fifo holds each key at most once, in first-insertion order. A key
	// dropped by invalidate keeps its slot as a tombstone (queued, not in m)
	// that a later put revives in place; tombstones are compacted away once
	// the queue passes twice the bound, as tracking.Table does.
	fifo   ring.Queue[string]
	queued map[string]bool
}

func newCache(max int) *cache {
	return &cache{max: max, m: make(map[string][]byte), queued: make(map[string]bool)}
}

func (c *cache) len() int { return len(c.m) }

func (c *cache) get(k string) ([]byte, bool) {
	v, ok := c.m[k]
	return v, ok
}

// put inserts or refreshes an entry, evicting the oldest live entry when
// the bound is hit. A refresh, or a put that revives a tombstone, keeps the
// key's original FIFO position.
func (c *cache) put(k string, v []byte) {
	if _, exists := c.m[k]; !exists {
		for len(c.m) >= c.max {
			if !c.evictOldest() {
				return // bound smaller than one live entry; never cache
			}
		}
		if !c.queued[k] {
			c.queued[k] = true
			c.fifo.Push(k)
		}
	}
	c.m[k] = v
	c.compact()
}

// evictOldest drops the oldest live entry, skipping tombstones of keys
// already invalidated. Returns false if nothing was evictable.
func (c *cache) evictOldest() bool {
	for c.fifo.Len() > 0 {
		k := c.fifo.Pop()
		delete(c.queued, k)
		if _, ok := c.m[k]; ok {
			delete(c.m, k)
			return true
		}
	}
	return false
}

// compact rebuilds the fifo without tombstones once they dominate, keeping
// the live keys' order.
func (c *cache) compact() {
	if c.fifo.Len() <= 2*c.max {
		return
	}
	for i := c.fifo.Len(); i > 0; i-- {
		k := c.fifo.Pop()
		if _, ok := c.m[k]; ok {
			c.fifo.Push(k)
		} else {
			delete(c.queued, k)
		}
	}
}

// invalidate drops one key; reports whether an entry was actually present
// (its fifo slot becomes a tombstone).
func (c *cache) invalidate(k string) bool {
	if _, ok := c.m[k]; !ok {
		return false
	}
	delete(c.m, k)
	return true
}

func (c *cache) flush() {
	c.m = make(map[string][]byte)
	c.queued = make(map[string]bool)
	c.fifo.Reset()
}

// entries snapshots the cache for coherence oracles.
func (c *cache) entries() map[string]string {
	out := make(map[string]string, len(c.m))
	for k, v := range c.m {
		out[k] = string(v)
	}
	return out
}
