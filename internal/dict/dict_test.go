package dict

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestSetGetDelete(t *testing.T) {
	d := New(1)
	if created := d.Set("k", 1); !created {
		t.Fatal("first Set should create")
	}
	if created := d.Set("k", 2); created {
		t.Fatal("second Set should replace")
	}
	v, ok := d.Get("k")
	if !ok || v.(int) != 2 {
		t.Fatalf("Get = %v,%v", v, ok)
	}
	if !d.Delete("k") {
		t.Fatal("Delete existing failed")
	}
	if d.Delete("k") {
		t.Fatal("Delete missing succeeded")
	}
	if _, ok := d.Get("k"); ok {
		t.Fatal("deleted key still present")
	}
	if d.Len() != 0 {
		t.Fatalf("len=%d", d.Len())
	}
}

func TestGrowthTriggersIncrementalRehash(t *testing.T) {
	d := New(1)
	for i := 0; i < 100; i++ {
		d.Set(fmt.Sprintf("key:%d", i), i)
	}
	// With 100 entries, growth must have happened at least once; either
	// the rehash is done or in progress, and all keys are reachable.
	for i := 0; i < 100; i++ {
		v, ok := d.Get(fmt.Sprintf("key:%d", i))
		if !ok || v.(int) != i {
			t.Fatalf("key:%d lost during rehash (ok=%v)", i, ok)
		}
	}
	if d.Len() != 100 {
		t.Fatalf("len=%d", d.Len())
	}
}

func TestRehashCompletesViaSteps(t *testing.T) {
	d := New(1)
	for i := 0; i < 5000; i++ {
		d.Set(fmt.Sprintf("key:%d", i), i)
	}
	for i := 0; i < 100000 && d.Rehashing(); i++ {
		d.RehashStep(10)
	}
	if d.Rehashing() {
		t.Fatal("rehash never completed")
	}
	for i := 0; i < 5000; i++ {
		if _, ok := d.Get(fmt.Sprintf("key:%d", i)); !ok {
			t.Fatalf("key:%d lost after rehash", i)
		}
	}
}

func TestDeleteDuringRehash(t *testing.T) {
	d := New(1)
	for i := 0; i < 1000; i++ {
		d.Set(fmt.Sprintf("key:%d", i), i)
	}
	// Force a rehash to be mid-flight by growing, then delete half.
	for i := 0; i < 1000; i += 2 {
		if !d.Delete(fmt.Sprintf("key:%d", i)) {
			t.Fatalf("key:%d not deletable", i)
		}
	}
	if d.Len() != 500 {
		t.Fatalf("len=%d, want 500", d.Len())
	}
	for i := 1; i < 1000; i += 2 {
		if _, ok := d.Get(fmt.Sprintf("key:%d", i)); !ok {
			t.Fatalf("surviving key:%d missing", i)
		}
	}
}

func TestRandomKeyCoversEntries(t *testing.T) {
	d := New(42)
	for i := 0; i < 50; i++ {
		d.Set(fmt.Sprintf("key:%d", i), i)
	}
	seen := make(map[string]bool)
	for i := 0; i < 2000; i++ {
		k, ok := d.RandomKey()
		if !ok {
			t.Fatal("RandomKey failed on non-empty dict")
		}
		seen[k] = true
	}
	if len(seen) < 40 {
		t.Fatalf("random sampling too narrow: %d/50 keys seen", len(seen))
	}
	empty := New(1)
	if _, ok := empty.RandomKey(); ok {
		t.Fatal("RandomKey on empty dict returned ok")
	}
}

func TestEachVisitsAllOnce(t *testing.T) {
	d := New(1)
	want := map[string]int{}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key:%d", i)
		d.Set(k, i)
		want[k] = i
	}
	got := map[string]int{}
	d.Each(func(k string, v any) bool {
		if _, dup := got[k]; dup {
			t.Fatalf("key %s visited twice", k)
		}
		got[k] = v.(int)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("visited %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %s value %d want %d", k, got[k], v)
		}
	}
}

func TestEachEarlyStop(t *testing.T) {
	d := New(1)
	for i := 0; i < 100; i++ {
		d.Set(fmt.Sprintf("k%d", i), i)
	}
	n := 0
	d.Each(func(string, any) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestKeysLength(t *testing.T) {
	d := New(1)
	for i := 0; i < 64; i++ {
		d.Set(fmt.Sprintf("k%d", i), nil)
	}
	if got := len(d.Keys()); got != 64 {
		t.Fatalf("Keys len=%d", got)
	}
}

// Property: a Dict behaves exactly like map[string]int under an arbitrary
// operation sequence (model-based check), whether a key arrives as a string
// or as bytes — and a second Dict fed the same sequence through the other
// form stays in lockstep with it: same rehash progress, same bucket counts,
// same RandomKey draws, same iteration order.
func TestDictMatchesMapModel(t *testing.T) {
	type op struct {
		Kind  uint8
		Key   uint8
		Val   int
		Bytes bool
	}
	f := func(ops []op) bool {
		d, twin := New(7), New(7)
		m := map[string]int{}
		for _, o := range ops {
			key := fmt.Sprintf("k%d", o.Key%64)
			switch o.Kind % 3 {
			case 0:
				_, inMap := m[key]
				var created bool
				if o.Bytes {
					var v *any
					v, created = d.Slot([]byte(key))
					*v = o.Val
					twin.Set(key, o.Val)
				} else {
					created = d.Set(key, o.Val)
					v, _ := twin.Slot([]byte(key))
					*v = o.Val
				}
				if created == inMap {
					return false
				}
				m[key] = o.Val
			case 1:
				v, ok := d.Get(key)
				tv, tok := twin.GetBytes([]byte(key))
				mv, mok := m[key]
				if ok != mok || tok != mok || (ok && (v.(int) != mv || tv.(int) != mv)) {
					return false
				}
			case 2:
				_, inMap := m[key]
				if d.Delete(key) != inMap || twin.DeleteBytes([]byte(key)) != inMap {
					return false
				}
				delete(m, key)
			}
			if d.Len() != len(m) || twin.Len() != len(m) ||
				d.Rehashing() != twin.Rehashing() || d.BucketCount() != twin.BucketCount() {
				return false
			}
			if k, ok := d.RandomKey(); ok {
				if tk, _ := twin.RandomKey(); tk != k {
					return false
				}
			}
		}
		return fmt.Sprint(d.Keys()) == fmt.Sprint(twin.Keys())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketGrowthPolicy(t *testing.T) {
	d := New(1)
	d.Set("a", 1)
	if d.BucketCount() != initialSize {
		t.Fatalf("initial buckets = %d, want %d", d.BucketCount(), initialSize)
	}
	for i := 0; i < 1000; i++ {
		d.Set(fmt.Sprintf("k%d", i), i)
	}
	if d.BucketCount() < 1000 {
		t.Fatalf("buckets = %d after 1000 inserts; growth policy broken", d.BucketCount())
	}
}

// TestBytesLookupsDoNotAllocate: a key held as bytes is hashed and compared
// where it lies, whatever its length — only creating an entry copies it.
func TestBytesLookupsDoNotAllocate(t *testing.T) {
	d := New(1)
	long := []byte(strings.Repeat("k", 200))
	other := []byte(strings.Repeat("j", 200))
	d.Set(string(long), 1)
	for i := 0; i < 100; i++ {
		d.Set(fmt.Sprintf("filler%d", i), i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if v, created := d.Slot(long); created || (*v).(int) != 1 {
			t.Fatal("Slot lost the key")
		}
		if _, ok := d.GetBytes(long); !ok {
			t.Fatal("GetBytes lost the key")
		}
		if _, ok := d.GetBytes(other); ok || d.DeleteBytes(other) {
			t.Fatal("found a key that was never set")
		}
	})
	if allocs != 0 {
		t.Fatalf("lookups by bytes allocated %.1f times, want 0", allocs)
	}
	if v, created := d.Slot(other); !created || *v != nil {
		t.Fatal("Slot on a missing key must create an empty entry")
	}
	other[0] = 'x' // the entry owns a copy of its key
	if _, ok := d.Get(strings.Repeat("j", 200)); !ok {
		t.Fatal("the created entry aliases the caller's key bytes")
	}
}
