package ring

// BoundedMap is a keyed store of at most max live entries that evicts by
// first insertion: when a Put of a new key finds it full, the live key
// inserted longest ago goes, and evict (if non-nil) is told. The order is a
// Queue of keys, never a map walk, so which key goes is a pure function of
// the operation history. A key holds one queue slot from its first insertion
// until eviction or compaction: Delete leaves the slot as a tombstone, which
// a later Put of the same key revives in place, and the tombstones are
// compacted away once the queue passes twice the bound. The client cache and
// the tracking interest table both keep their entries here. Not safe for
// concurrent use.
type BoundedMap[K comparable, V any] struct {
	max    int
	m      map[K]V
	order  Queue[K]   // keys in first-insertion order, tombstones included
	queued map[K]bool // keys holding a slot in order
	evict  func(K, V)
}

// NewBoundedMap returns an empty store holding at most max live entries
// (max < 1 holds none). evict, if non-nil, is called with each entry Put
// evicts, after the entry has left the store.
func NewBoundedMap[K comparable, V any](max int, evict func(K, V)) *BoundedMap[K, V] {
	return &BoundedMap[K, V]{max: max, m: make(map[K]V), queued: make(map[K]bool), evict: evict}
}

// Len reports the number of live entries.
func (b *BoundedMap[K, V]) Len() int { return len(b.m) }

// Slots reports the queue slots in use, tombstones included: at most twice
// the bound once a Put returns.
func (b *BoundedMap[K, V]) Slots() int { return b.order.Len() }

// Get returns the live entry for k.
func (b *BoundedMap[K, V]) Get(k K) (V, bool) {
	v, ok := b.m[k]
	return v, ok
}

// Put inserts or replaces the entry for k. A new key first evicts the oldest
// live entries until there is room; it keeps its tombstone's place in the
// order if it still has one, and goes to the tail otherwise.
func (b *BoundedMap[K, V]) Put(k K, v V) {
	_, live := b.m[k]
	for !live && len(b.m) >= b.max {
		if !b.evictOne() {
			return
		}
	}
	b.m[k] = v
	if !live && !b.queued[k] {
		b.queued[k] = true
		b.order.Push(k)
		b.compact()
	}
}

// Delete removes the live entry for k, leaving its slot as a tombstone, and
// returns what it held.
func (b *BoundedMap[K, V]) Delete(k K) (V, bool) {
	v, ok := b.m[k]
	if ok {
		delete(b.m, k)
	}
	return v, ok
}

// Each calls fn for every live entry in first-insertion order. fn may Delete
// entries (the walk skips what it deleted) but must not Put.
func (b *BoundedMap[K, V]) Each(fn func(K, V)) {
	for i := 0; i < b.order.Len(); i++ {
		k := *b.order.At(i)
		if v, ok := b.m[k]; ok {
			fn(k, v)
		}
	}
}

// Reset empties the store and releases its queue.
func (b *BoundedMap[K, V]) Reset() {
	clear(b.m)
	clear(b.queued)
	b.order.Reset()
}

// evictOne pops the queue up to and including the oldest live key, evicts
// that entry and reports whether there was one.
func (b *BoundedMap[K, V]) evictOne() bool {
	for b.order.Len() > 0 {
		k := b.order.Pop()
		delete(b.queued, k)
		if v, ok := b.m[k]; ok {
			delete(b.m, k)
			if b.evict != nil {
				b.evict(k, v)
			}
			return true
		}
	}
	return false
}

// compact drops the tombstones once the queue passes twice the bound,
// rotating the live keys through it in place so their order is kept.
func (b *BoundedMap[K, V]) compact() {
	if b.order.Len() <= 2*b.max {
		return
	}
	for n := b.order.Len(); n > 0; n-- {
		k := b.order.Pop()
		if _, ok := b.m[k]; ok {
			b.order.Push(k)
		} else {
			delete(b.queued, k)
		}
	}
}
