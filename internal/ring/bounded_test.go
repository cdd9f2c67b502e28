package ring

import (
	"reflect"
	"testing"
)

// sliceBounded is the reference for BoundedMap: the same eviction rule over
// a plain slice of slots searched linearly, with no index beside it.
type sliceBounded struct {
	max     int
	slots   []refSlot // first-insertion order, tombstones included
	evicted []int
}

type refSlot struct {
	key, val int
	live     bool
}

func (r *sliceBounded) find(k int) int {
	for i, s := range r.slots {
		if s.key == k {
			return i
		}
	}
	return -1
}

func (r *sliceBounded) live() int {
	n := 0
	for _, s := range r.slots {
		if s.live {
			n++
		}
	}
	return n
}

func (r *sliceBounded) put(k, v int) {
	if i := r.find(k); i >= 0 && r.slots[i].live {
		r.slots[i].val = v
		return
	}
	for r.live() >= r.max {
		if len(r.slots) == 0 {
			return
		}
		head := r.slots[0]
		r.slots = r.slots[1:]
		if head.live {
			r.evicted = append(r.evicted, head.key)
		}
	}
	if i := r.find(k); i >= 0 {
		r.slots[i] = refSlot{key: k, val: v, live: true}
		return
	}
	r.slots = append(r.slots, refSlot{key: k, val: v, live: true})
	if len(r.slots) > 2*r.max {
		kept := r.slots[:0]
		for _, s := range r.slots {
			if s.live {
				kept = append(kept, s)
			}
		}
		r.slots = kept
	}
}

func (r *sliceBounded) del(k int) {
	if i := r.find(k); i >= 0 {
		r.slots[i].live = false
	}
}

func (r *sliceBounded) entries() [][2]int {
	var out [][2]int
	for _, s := range r.slots {
		if s.live {
			out = append(out, [2]int{s.key, s.val})
		}
	}
	return out
}

// checkBounded drives a BoundedMap and the slice reference with the op
// stream in ops (two bytes per op: opcode, key) and fails at the first
// divergence in live set, eviction order or iteration order, or once the
// queue holds more than twice the bound plus one.
func checkBounded(t *testing.T, max int, ops []byte) {
	t.Helper()
	var evicted []int
	b := NewBoundedMap(max, func(k, _ int) { evicted = append(evicted, k) })
	ref := &sliceBounded{max: max}
	entries := func() [][2]int {
		var out [][2]int
		b.Each(func(k, v int) { out = append(out, [2]int{k, v}) })
		return out
	}
	for i := 0; i+1 < len(ops); i += 2 {
		k := int(ops[i+1] % 8)
		switch ops[i] % 8 {
		case 0, 1, 2: // put, a revive when k holds a tombstone
			b.Put(k, i)
			ref.put(k, i)
		case 3, 4:
			b.Delete(k)
			ref.del(k)
		case 5: // ordered walk that deletes every other entry, as TakeAll does
			n := 0
			b.Each(func(k, _ int) {
				if n%2 == 0 {
					b.Delete(k)
				}
				n++
			})
			for j, e := range ref.entries() {
				if j%2 == 0 {
					ref.del(e[0])
				}
			}
		case 6:
			if i%5 == 0 {
				b.Reset()
				ref.slots = nil
			}
		case 7:
			v, ok := b.Get(k)
			j := ref.find(k)
			if want := j >= 0 && ref.slots[j].live; ok != want || ok && v != ref.slots[j].val {
				t.Fatalf("op %d: Get(%d) = %d, %t; reference %v", i/2, k, v, ok, ref.slots)
			}
		}
		if got, want := entries(), ref.entries(); !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: entries %v, reference %v", i/2, got, want)
		}
		if b.Len() != ref.live() {
			t.Fatalf("op %d: Len %d, reference %d", i/2, b.Len(), ref.live())
		}
		if !reflect.DeepEqual(evicted, ref.evicted) {
			t.Fatalf("op %d: evicted %v, reference %v", i/2, evicted, ref.evicted)
		}
		if b.Slots() > 2*max+1 {
			t.Fatalf("op %d: %d queue slots past bound %d", i/2, b.Slots(), max)
		}
	}
}

func TestBoundedMapMatchesSliceModel(t *testing.T) {
	// Revive in place, revive after the tombstone was popped by an eviction,
	// and compaction at bound 2.
	checkBounded(t, 2, []byte{0, 1, 0, 2, 3, 1, 0, 1, 0, 3, 0, 1, 3, 3, 3, 1, 0, 4, 0, 5, 0, 6, 5, 0, 0, 1, 6, 0})
	for max := 1; max <= 4; max++ {
		ops := make([]byte, 4000)
		x := uint32(max)
		for i := range ops {
			x = x*1664525 + 1013904223
			ops[i] = byte(x >> 24)
		}
		checkBounded(t, max, ops)
	}
}

func FuzzBoundedMap(f *testing.F) {
	f.Add(uint8(2), []byte{0, 1, 0, 2, 3, 1, 0, 3, 0, 1, 5, 0, 0, 4})
	f.Add(uint8(1), []byte{0, 1, 3, 1, 0, 2, 0, 1, 6, 0, 0, 1})
	f.Fuzz(func(t *testing.T, max uint8, ops []byte) {
		checkBounded(t, int(max%5), ops)
	})
}
