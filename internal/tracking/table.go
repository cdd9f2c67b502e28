// Package tracking is the one invalidation plane behind CLIENT TRACKING
// (§II-B of the Redis server-assisted caching design, carried over to SKV):
// the grammar a connection turns tracking on and off with (Conn), and the
// bounded interest table with its subscribers' push channels and the walk
// that decides which keys a write invalidates (Table). One table lives
// wherever reads are admitted — the master for in-band tracking, Nic-KV for
// the redirect and NIC-served modes — and each side differs only in the push
// channels it arms.
//
// Determinism: subscriber sets are kept in first-interest order and keys in
// a ring.BoundedMap (eviction by first insertion, no map walk), so the wire
// order of invalidation pushes is a pure function of the operation history.
package tracking

import (
	"skv/internal/ring"
	"skv/internal/store"
)

// Table is a bounded key→subscribers interest table together with the push
// channels of its subscribers. Not safe for concurrent use; in the simulator
// every table is confined to one proc. A nil *Table is an empty one: the
// reporting methods, Invalidate and DropSub accept it.
type Table struct {
	keys     *ring.BoundedMap[string, []string] // tracked key → subscribers in first-interest order
	interest map[string]map[string]bool         // subscriber → keys it holds interest in
	sinks    map[string]func(key string)        // armed subscriber → its push channel
}

// New returns an empty table bounded to max distinct keys (0 = 65536).
// Admitting a key past the bound evicts the oldest tracked key and pushes an
// invalidation for it: its subscribers would otherwise serve it stale forever.
func New(max int) *Table {
	if max <= 0 {
		max = 65536
	}
	t := &Table{interest: make(map[string]map[string]bool), sinks: make(map[string]func(string))}
	t.keys = ring.NewBoundedMap(max, func(key string, subs []string) {
		t.unlink(key, subs)
		t.push(key, subs)
	})
	return t
}

// Len reports the number of distinct tracked keys.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	return t.keys.Len()
}

// Subscribers reports how many subscribers hold any interest.
func (t *Table) Subscribers() int {
	if t == nil {
		return 0
	}
	return len(t.interest)
}

// Armed reports how many subscribers have a push channel.
func (t *Table) Armed() int {
	if t == nil {
		return 0
	}
	return len(t.sinks)
}

// IsArmed reports whether subscriber name has a push channel.
func (t *Table) IsArmed(name string) bool { return t != nil && t.sinks[name] != nil }

// Arm installs (or replaces) subscriber name's push channel: push delivers
// one invalidation for key.
func (t *Table) Arm(name string, push func(key string)) { t.sinks[name] = push }

// Add records that subscriber name must be invalidated when key changes.
// Idempotent per (key, name) pair; a name with no push channel is ignored,
// since there is nowhere to push.
func (t *Table) Add(key, name string) {
	if t.sinks[name] == nil || t.interest[name][key] {
		return
	}
	subs, _ := t.keys.Get(key)
	t.keys.Put(key, append(subs, name))
	ks := t.interest[name]
	if ks == nil {
		ks = make(map[string]bool, 4)
		t.interest[name] = ks
	}
	ks[key] = true
}

// DropSub forgets every interest held by subscriber name and disarms its
// push channel (CLIENT TRACKING OFF, disconnect, channel loss), with no
// pushes: the departing subscriber's cache dies with it. Keys whose last
// subscriber leaves are removed from the table.
func (t *Table) DropSub(name string) {
	if t == nil {
		return
	}
	delete(t.sinks, name)
	for key := range t.interest[name] {
		subs, _ := t.keys.Get(key)
		for i, s := range subs {
			if s == name {
				subs = append(subs[:i], subs[i+1:]...)
				break
			}
		}
		if len(subs) == 0 {
			t.keys.Delete(key)
		} else {
			t.keys.Put(key, subs)
		}
	}
	delete(t.interest, name)
}

// Invalidate is the one write-invalidation walk: it tells every subscriber
// interested in a dirty write's keys that their cached copies are stale, in
// the write's key order and per key in first-interest order. A keyless write
// (cmd nil or FirstKey 0: FLUSHDB and friends) invalidates every tracked key,
// in admission order. Interest is one-shot, as in Redis: a subscriber must
// read the key again to re-register. An empty table costs one length check.
func (t *Table) Invalidate(cmd *store.Command, argv [][]byte) {
	if t.Len() == 0 {
		return
	}
	if cmd == nil || cmd.FirstKey == 0 {
		t.keys.Each(func(key string, _ []string) { t.push(key, t.take(key)) })
		return
	}
	cmd.EachKey(argv, func(key []byte) {
		k := string(key)
		t.push(k, t.take(k))
	})
}

// take removes key from the table and returns its subscribers (nil if it
// was not tracked).
func (t *Table) take(key string) []string {
	subs, ok := t.keys.Delete(key)
	if ok {
		t.unlink(key, subs)
	}
	return subs
}

// unlink drops key from its subscribers' back-references.
func (t *Table) unlink(key string, subs []string) {
	for _, name := range subs {
		if ks := t.interest[name]; ks != nil {
			delete(ks, key)
			if len(ks) == 0 {
				delete(t.interest, name)
			}
		}
	}
}

// push delivers one invalidation for key to each armed subscriber in subs.
func (t *Table) push(key string, subs []string) {
	for _, name := range subs {
		if push := t.sinks[name]; push != nil {
			push(key)
		}
	}
}
