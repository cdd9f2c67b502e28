// Package dict implements the incrementally-rehashed chained hash table at
// the heart of Redis (dict.c), which SKV inherits as its primary storage
// structure (paper §I: "Redis uses hash table as a storage structure, which
// has high insertion and query performance").
//
// Two tables coexist during a rehash; every mutating operation migrates one
// bucket (a "rehash step"), and the server cron can donate extra steps, so
// no single command ever pays for a full resize.
package dict

import (
	"math/rand"
)

const (
	initialSize = 4
	// forceResizeRatio matches dict_force_resize_ratio: above this load
	// factor a resize happens even when one is normally avoided.
	forceResizeRatio = 5
)

type entry struct {
	key  string
	val  any
	next *entry
}

type table struct {
	buckets []*entry
	used    int
}

func (t *table) mask() uint64 { return uint64(len(t.buckets) - 1) }

// Dict is a hash table from string keys to arbitrary values. It is not safe
// for concurrent use; SKV's servers are single-threaded by design.
type Dict struct {
	ht        [2]table
	rehashidx int // -1 when not rehashing, else next bucket of ht[0] to move
	iterators int // safe iterators outstanding; pauses rehash steps
	rnd       *rand.Rand
}

// New creates an empty dict whose random sampling is driven by the seed
// (deterministic across runs with the same seed).
func New(seed int64) *Dict {
	return &Dict{rehashidx: -1, rnd: rand.New(rand.NewSource(seed))}
}

// keyForm is a lookup key in either form it arrives in: a string, or the
// bytes of a command argument. Comparing an entry's key with string(bytes) does
// not allocate, so a lookup by bytes costs nothing whatever the key's
// length; the bytes are copied only when an entry is created for them.
type keyForm interface{ string | []byte }

// fnv1a64 is the key hash (Redis uses siphash; FNV keeps us dependency-free
// and deterministic).
func fnv1a64[K keyForm](s K) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Len reports the number of entries across both tables.
func (d *Dict) Len() int { return d.ht[0].used + d.ht[1].used }

// Rehashing reports whether an incremental rehash is in progress.
func (d *Dict) Rehashing() bool { return d.rehashidx != -1 }

// expandIfNeeded applies the Redis growth policy.
func (d *Dict) expandIfNeeded() {
	if d.Rehashing() {
		return
	}
	if len(d.ht[0].buckets) == 0 {
		d.resize(initialSize)
		return
	}
	if d.ht[0].used >= len(d.ht[0].buckets) {
		d.resize(d.ht[0].used * 2)
	}
}

// resize starts an incremental rehash into a table of at least size buckets
// (rounded up to a power of two).
func (d *Dict) resize(size int) {
	real := initialSize
	for real < size {
		real *= 2
	}
	if real == len(d.ht[0].buckets) {
		return
	}
	nt := table{buckets: make([]*entry, real)}
	if len(d.ht[0].buckets) == 0 {
		d.ht[0] = nt // first allocation, nothing to migrate
		return
	}
	d.ht[1] = nt
	d.rehashidx = 0
}

// RehashStep migrates up to n buckets from ht[0] to ht[1]. It is invoked
// implicitly by mutating operations and explicitly by the server cron.
// Returns true while more work remains.
func (d *Dict) RehashStep(n int) bool {
	if !d.Rehashing() || d.iterators > 0 {
		return d.Rehashing()
	}
	// Limit empty-bucket scanning like dictRehash's empty_visits.
	emptyVisits := n * 10
	for ; n > 0; n-- {
		for d.rehashidx < len(d.ht[0].buckets) && d.ht[0].buckets[d.rehashidx] == nil {
			d.rehashidx++
			emptyVisits--
			if emptyVisits == 0 {
				return true
			}
		}
		if d.rehashidx >= len(d.ht[0].buckets) {
			break
		}
		e := d.ht[0].buckets[d.rehashidx]
		for e != nil {
			next := e.next
			idx := fnv1a64(e.key) & d.ht[1].mask()
			e.next = d.ht[1].buckets[idx]
			d.ht[1].buckets[idx] = e
			d.ht[0].used--
			d.ht[1].used++
			e = next
		}
		d.ht[0].buckets[d.rehashidx] = nil
		d.rehashidx++
	}
	if d.ht[0].used == 0 && d.Rehashing() {
		d.ht[0] = d.ht[1]
		d.ht[1] = table{}
		d.rehashidx = -1
		return false
	}
	return true
}

func (d *Dict) stepOnAccess() {
	if d.Rehashing() {
		d.RehashStep(1)
	}
}

// find returns k's entry (hash h) in either table, or nil. It takes no
// rehash step: the exported operations step first.
func find[K keyForm](d *Dict, k K, h uint64) *entry {
	for i := range d.ht {
		if len(d.ht[i].buckets) == 0 {
			continue
		}
		for e := d.ht[i].buckets[h&d.ht[i].mask()]; e != nil; e = e.next {
			if e.key == string(k) {
				return e
			}
		}
	}
	return nil
}

// slot is the body of Set and Slot: one rehash step, the growth check, then
// k's entry, created (in ht[1] while rehashing) when absent.
func slot[K keyForm](d *Dict, k K) (val *any, created bool) {
	d.stepOnAccess()
	d.expandIfNeeded()
	h := fnv1a64(k)
	if e := find(d, k, h); e != nil {
		return &e.val, false
	}
	ti := 0
	if d.Rehashing() {
		ti = 1
	}
	idx := h & d.ht[ti].mask()
	e := &entry{key: string(k), next: d.ht[ti].buckets[idx]}
	d.ht[ti].buckets[idx] = e
	d.ht[ti].used++
	return &e.val, true
}

func get[K keyForm](d *Dict, k K) (any, bool) {
	if d.Len() == 0 {
		return nil, false
	}
	d.stepOnAccess()
	if e := find(d, k, fnv1a64(k)); e != nil {
		return e.val, true
	}
	return nil, false
}

func remove[K keyForm](d *Dict, k K) bool {
	if d.Len() == 0 {
		return false
	}
	d.stepOnAccess()
	h := fnv1a64(k)
	for i := range d.ht {
		if len(d.ht[i].buckets) == 0 {
			continue
		}
		idx := h & d.ht[i].mask()
		var prev *entry
		for e := d.ht[i].buckets[idx]; e != nil; e = e.next {
			if e.key == string(k) {
				if prev == nil {
					d.ht[i].buckets[idx] = e.next
				} else {
					prev.next = e.next
				}
				d.ht[i].used--
				return true
			}
			prev = e
		}
	}
	return false
}

// Set inserts or replaces a key. Returns true if the key was newly created.
func (d *Dict) Set(key string, val any) bool {
	v, created := slot(d, key)
	*v = val
	return created
}

// Slot is Set without the value, for a key held as bytes: it takes the
// rehash step and growth check a Set takes, finds or creates the key's
// entry, and returns where its value lives, so the caller can rewrite what
// is there instead of replacing it. A created entry holds nil and a copy of
// key. The pointer is valid until the key is deleted.
func (d *Dict) Slot(key []byte) (val *any, created bool) { return slot(d, key) }

// Get fetches a key's value; ok is false when absent.
func (d *Dict) Get(key string) (any, bool) { return get(d, key) }

// GetBytes is Get for a key held as bytes.
func (d *Dict) GetBytes(key []byte) (any, bool) { return get(d, key) }

// Delete removes a key, reporting whether it was present.
func (d *Dict) Delete(key string) bool { return remove(d, key) }

// DeleteBytes is Delete for a key held as bytes.
func (d *Dict) DeleteBytes(key []byte) bool { return remove(d, key) }

// RandomKey returns a uniformly-ish random key like dictGetRandomKey
// (random bucket, then random chain position). ok is false when empty.
func (d *Dict) RandomKey() (string, bool) {
	if d.Len() == 0 {
		return "", false
	}
	d.stepOnAccess()
	var e *entry
	for e == nil {
		if d.Rehashing() {
			total := len(d.ht[0].buckets) + len(d.ht[1].buckets)
			idx := d.rnd.Intn(total)
			if idx < len(d.ht[0].buckets) {
				e = d.ht[0].buckets[idx]
			} else {
				e = d.ht[1].buckets[idx-len(d.ht[0].buckets)]
			}
		} else {
			e = d.ht[0].buckets[d.rnd.Intn(len(d.ht[0].buckets))]
		}
	}
	n := 0
	for c := e; c != nil; c = c.next {
		n++
	}
	for skip := d.rnd.Intn(n); skip > 0; skip-- {
		e = e.next
	}
	return e.key, true
}

// Each calls fn for every entry. Mutation during iteration is not allowed
// except through the iterator-safe Delete of the current key after Each
// returns. Rehash steps are paused while iterating (safe-iterator
// semantics). Returning false from fn stops early.
func (d *Dict) Each(fn func(key string, val any) bool) {
	d.iterators++
	defer func() { d.iterators-- }()
	for i := 0; i < 2; i++ {
		for _, head := range d.ht[i].buckets {
			for e := head; e != nil; e = e.next {
				if !fn(e.key, e.val) {
					return
				}
			}
		}
	}
}

// Keys returns all keys (order unspecified but deterministic for a given
// insertion history).
func (d *Dict) Keys() []string {
	out := make([]string, 0, d.Len())
	d.Each(func(k string, _ any) bool {
		out = append(out, k)
		return true
	})
	return out
}

// BucketCount reports the allocated bucket count (both tables), used by
// tests asserting the growth policy.
func (d *Dict) BucketCount() int { return len(d.ht[0].buckets) + len(d.ht[1].buckets) }
