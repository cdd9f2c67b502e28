package workload

import (
	"strconv"
	"testing"
)

// TestCacheInvalidateChurnStaysBounded: a key that is cached and invalidated
// over and over holds one FIFO slot, not one per cycle, and tombstones of
// many distinct keys are compacted before the queue passes twice the bound.
func TestCacheInvalidateChurnStaysBounded(t *testing.T) {
	c := newCache(cacheEntries)
	for i := 0; i < 100_000; i++ {
		c.put("k", []byte("v"))
		c.invalidate("k")
	}
	if c.len() != 0 || c.fifo.Len() > 1 {
		t.Fatalf("one key churned: %d live entries in %d fifo slots", c.len(), c.fifo.Len())
	}
	for i := 0; i < 100_000; i++ {
		k := strconv.Itoa(i)
		c.put(k, []byte("v"))
		c.invalidate(k)
	}
	if c.len() != 0 || c.fifo.Len() > 2*cacheEntries {
		t.Fatalf("distinct keys churned: %d live entries in %d fifo slots", c.len(), c.fifo.Len())
	}
}

// TestCacheEvictsByFirstInsertion: eviction drops the live key inserted
// first; a key revived after an invalidation keeps its original place.
func TestCacheEvictsByFirstInsertion(t *testing.T) {
	c := newCache(2)
	c.put("a", []byte("1"))
	c.put("b", []byte("2"))
	c.invalidate("a")
	c.put("a", []byte("3")) // revives a in its first-insertion slot
	c.put("c", []byte("4")) // full: evicts a, the oldest
	if _, ok := c.get("a"); ok {
		t.Fatal("a survived; eviction is not by first insertion")
	}
	c.put("d", []byte("5")) // evicts b
	got := c.entries()
	if len(got) != 2 || got["c"] != "4" || got["d"] != "5" {
		t.Fatalf("entries %v, want c and d", got)
	}
}
