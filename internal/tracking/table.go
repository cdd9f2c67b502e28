// Package tracking implements the bounded invalidation interest table
// behind CLIENT TRACKING (§II-B of the Redis server-assisted caching
// design, carried over to SKV). One table instance lives wherever reads
// are admitted — the master for in-band tracking, Nic-KV for the
// redirect/offloaded mode — and maps each tracked key to the set of
// subscribers that must be told when it changes.
//
// Determinism: subscriber sets are kept in insertion order (not Go map
// order) so the wire order of invalidation pushes is identical across
// runs, and eviction is FIFO over distinct keys with lazy tombstones so
// the evicted key is a pure function of the operation history.
package tracking

import "skv/internal/ring"

// Entry is one tracked key and its subscribers, as returned by Take and
// TakeAll. Subs is in first-interest order.
type Entry struct {
	Key  string
	Subs []string
}

type keyEntry struct {
	subs   []string        // insertion-ordered subscriber names
	member map[string]bool // membership for O(1) dedupe
}

// Table is a bounded key→subscribers interest table. Not safe for
// concurrent use; in the simulator every table is confined to one proc.
type Table struct {
	// Max bounds the number of distinct tracked keys. When an Add would
	// exceed it, the oldest tracked key is evicted and OnEvict fires so
	// callers can push a synthetic invalidation (the evicted key's
	// subscribers would otherwise serve it stale forever).
	Max int
	// OnEvict, if set, is called with each evicted key and its
	// subscribers before the entry is dropped.
	OnEvict func(key string, subs []string)

	byKey  map[string]*keyEntry
	subs   map[string]map[string]bool // name → keys it is interested in
	fifo   ring.Queue[string]         // key admission order (may hold tombstones)
	inFifo map[string]bool            // keys currently holding a fifo slot
}

// New returns an empty table bounded to max distinct keys (0 = 65536).
func New(max int) *Table {
	if max <= 0 {
		max = 65536
	}
	return &Table{
		Max:    max,
		byKey:  make(map[string]*keyEntry),
		subs:   make(map[string]map[string]bool),
		inFifo: make(map[string]bool),
	}
}

// Len reports the number of distinct tracked keys.
func (t *Table) Len() int { return len(t.byKey) }

// Subscribers reports how many subscribers currently hold any interest.
func (t *Table) Subscribers() int { return len(t.subs) }

// Add records that subscriber name must be invalidated when key changes.
// Idempotent per (key, name) pair.
func (t *Table) Add(key, name string) {
	e := t.byKey[key]
	if e == nil {
		t.evictFor(key)
		e = &keyEntry{member: make(map[string]bool, 2)}
		t.byKey[key] = e
		if !t.inFifo[key] {
			t.fifo.Push(key)
			t.inFifo[key] = true
			t.compact()
		}
	}
	if !e.member[name] {
		e.member[name] = true
		e.subs = append(e.subs, name)
	}
	ks := t.subs[name]
	if ks == nil {
		ks = make(map[string]bool, 4)
		t.subs[name] = ks
	}
	ks[key] = true
}

// Take removes key from the table and returns its subscribers in
// first-interest order (nil if untracked). Interest is one-shot, as in
// Redis: a subscriber must read the key again to re-register.
func (t *Table) Take(key string) []string {
	e := t.byKey[key]
	if e == nil {
		return nil
	}
	t.drop(key, e)
	return e.subs
}

// TakeAll empties the table and returns every entry in key admission
// order. Used for keyless dirty operations (FLUSHDB and friends).
func (t *Table) TakeAll() []Entry {
	if len(t.byKey) == 0 {
		return nil
	}
	out := make([]Entry, 0, len(t.byKey))
	for i := 0; i < t.fifo.Len(); i++ {
		key := *t.fifo.At(i)
		e := t.byKey[key]
		if e == nil {
			continue // tombstone
		}
		out = append(out, Entry{Key: key, Subs: e.subs})
		t.drop(key, e)
	}
	return out
}

// DropSub forgets every interest held by subscriber name (disconnect).
// Keys whose last subscriber leaves are removed from the table.
func (t *Table) DropSub(name string) {
	ks := t.subs[name]
	if ks == nil {
		return
	}
	delete(t.subs, name)
	for key := range ks {
		e := t.byKey[key]
		if e == nil || !e.member[name] {
			continue
		}
		delete(e.member, name)
		for i, s := range e.subs {
			if s == name {
				e.subs = append(e.subs[:i], e.subs[i+1:]...)
				break
			}
		}
		if len(e.subs) == 0 {
			t.drop(key, e)
		}
	}
}

// drop removes key's entry and its per-subscriber back-references. The
// fifo slot is left as a tombstone (skipped lazily).
func (t *Table) drop(key string, e *keyEntry) {
	delete(t.byKey, key)
	for _, name := range e.subs {
		if ks := t.subs[name]; ks != nil {
			delete(ks, key)
			if len(ks) == 0 {
				delete(t.subs, name)
			}
		}
	}
}

// evictFor makes room for one more key, firing OnEvict for each victim.
func (t *Table) evictFor(key string) {
	for len(t.byKey) >= t.Max {
		victim := ""
		for t.fifo.Len() > 0 {
			k := t.fifo.Pop()
			delete(t.inFifo, k)
			if t.byKey[k] != nil {
				victim = k
				break
			}
		}
		if victim == "" {
			return // fifo exhausted (only tombstones) — cannot happen while byKey is full
		}
		e := t.byKey[victim]
		t.drop(victim, e)
		if t.OnEvict != nil {
			t.OnEvict(victim, e.subs)
		}
	}
}

// compact drops the fifo's tombstones once they dominate, rotating the live
// keys through the queue in place so their order is kept.
func (t *Table) compact() {
	if t.fifo.Len() <= 2*t.Max {
		return
	}
	for n := t.fifo.Len(); n > 0; n-- {
		if k := t.fifo.Pop(); t.byKey[k] != nil {
			t.fifo.Push(k)
		} else {
			delete(t.inFifo, k)
		}
	}
}
