package workload

import (
	"strconv"
	"testing"

	"skv/internal/ring"
)

// TestCacheInvalidateChurnStaysBounded: a key that is cached and invalidated
// over and over holds one FIFO slot, not one per cycle, and tombstones of
// many distinct keys are compacted before the queue passes twice the bound.
func TestCacheInvalidateChurnStaysBounded(t *testing.T) {
	c := ring.NewBoundedMap[string, []byte](cacheEntries, nil)
	for i := 0; i < 100_000; i++ {
		c.Put("k", []byte("v"))
		c.Delete("k")
	}
	if c.Len() != 0 || c.Slots() > 1 {
		t.Fatalf("one key churned: %d live entries in %d fifo slots", c.Len(), c.Slots())
	}
	for i := 0; i < 100_000; i++ {
		k := strconv.Itoa(i)
		c.Put(k, []byte("v"))
		c.Delete(k)
	}
	if c.Len() != 0 || c.Slots() > 2*cacheEntries {
		t.Fatalf("distinct keys churned: %d live entries in %d fifo slots", c.Len(), c.Slots())
	}
}

// TestCacheEvictsByFirstInsertion: eviction drops the live key inserted
// first; a key revived after an invalidation keeps its original place.
func TestCacheEvictsByFirstInsertion(t *testing.T) {
	c := ring.NewBoundedMap[string, []byte](2, nil)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Delete("a")
	c.Put("a", []byte("3")) // revives a in its first-insertion slot
	c.Put("c", []byte("4")) // full: evicts a, the oldest
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived; eviction is not by first insertion")
	}
	c.Put("d", []byte("5")) // evicts b
	var got []string
	c.Each(func(k string, v []byte) { got = append(got, k+"="+string(v)) })
	if len(got) != 2 || got[0] != "c=4" || got[1] != "d=5" {
		t.Fatalf("entries %v, want c=4 d=5", got)
	}
}
