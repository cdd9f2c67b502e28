package tracking

import (
	"fmt"
	"reflect"
	"testing"

	"skv/internal/store"
)

// arm gives each name a push channel that logs "name:key" per invalidation.
func arm(tb *Table, log *[]string, names ...string) {
	for _, name := range names {
		tb.Arm(name, func(key string) { *log = append(*log, name+":"+key) })
	}
}

// write runs the invalidation walk for a SET of key.
func write(tb *Table, key string) {
	tb.Invalidate(store.LookupCommand([]byte("SET")), [][]byte{[]byte("SET"), []byte(key), []byte("v")})
}

func TestAddTakeOrder(t *testing.T) {
	tb := New(16)
	var log []string
	arm(tb, &log, "a", "b")
	tb.Add("k", "b")
	tb.Add("k", "a")
	tb.Add("k", "b")      // dup is idempotent
	tb.Add("k", "nobody") // unarmed: nowhere to push
	write(tb, "k")
	if want := []string{"b:k", "a:k"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("pushes = %v, want first-interest order %v", log, want)
	}
	write(tb, "k")
	if len(log) != 2 {
		t.Fatalf("interest must be one-shot: %v", log)
	}
	if tb.Len() != 0 || tb.Subscribers() != 0 || tb.Armed() != 2 {
		t.Fatalf("after the write: len=%d subs=%d armed=%d, want 0/0/2", tb.Len(), tb.Subscribers(), tb.Armed())
	}
}

func TestTakeAllAdmissionOrder(t *testing.T) {
	tb := New(16)
	var log []string
	arm(tb, &log, "s1", "s2")
	tb.Add("b", "s1")
	tb.Add("a", "s1")
	tb.Add("c", "s2")
	write(tb, "a") // leaves a tombstone in the key order
	tb.Invalidate(store.LookupCommand([]byte("FLUSHDB")), [][]byte{[]byte("FLUSHDB")})
	if want := []string{"s1:a", "s1:b", "s2:c"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("pushes = %v, want %v", log, want)
	}
	if tb.Len() != 0 {
		t.Fatalf("table not empty after a keyless write: %d", tb.Len())
	}
}

func TestDropSub(t *testing.T) {
	tb := New(16)
	var log []string
	arm(tb, &log, "a", "b")
	tb.Add("k1", "a")
	tb.Add("k1", "b")
	tb.Add("k2", "a")
	tb.DropSub("a")
	if tb.IsArmed("a") || tb.Armed() != 1 {
		t.Fatalf("DropSub(a) left a armed: armed=%d", tb.Armed())
	}
	write(tb, "k1")
	write(tb, "k2")
	if want := []string{"b:k1"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("pushes after DropSub(a) = %v, want %v (k2 left with its only subscriber)", log, want)
	}
	if tb.Len() != 0 || tb.Subscribers() != 0 {
		t.Fatalf("leak: len=%d subs=%d", tb.Len(), tb.Subscribers())
	}
}

func TestEvictionFIFO(t *testing.T) {
	tb := New(2)
	var log []string
	arm(tb, &log, "a", "b")
	tb.Add("k1", "a")
	tb.Add("k2", "a")
	tb.Add("k3", "b") // evicts k1, pushing its invalidation
	if want := []string{"a:k1"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("evicted = %v, want %v", log, want)
	}
	if tb.Len() != 2 {
		t.Fatalf("len = %d, want 2", tb.Len())
	}
	// Re-adding an evicted key admits it at the tail.
	tb.Add("k1", "a") // evicts k2
	if want := []string{"a:k1", "a:k2"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("evicted = %v, want %v", log, want)
	}
	log = nil
	write(tb, "k3")
	write(tb, "k1")
	if want := []string{"b:k3", "a:k1"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("k3 and k1 should survive: pushes %v", log)
	}
}

func TestTombstoneCompaction(t *testing.T) {
	tb := New(4)
	var log []string
	arm(tb, &log, "s")
	// Churn far past twice the bound to force compaction repeatedly.
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i)
		tb.Add(k, "s")
		write(tb, k)
	}
	if tb.keys.Slots() > 2*4 {
		t.Fatalf("key order not compacted: %d slots", tb.keys.Slots())
	}
	if tb.Len() != 0 || len(log) != 100 {
		t.Fatalf("len = %d, pushes = %d; want 0, 100", tb.Len(), len(log))
	}
	// Table still works after compaction.
	log = nil
	tb.Add("x", "s")
	write(tb, "x")
	if want := []string{"s:x"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("pushes after churn = %v", log)
	}
}

func TestDeterministicUnderChurn(t *testing.T) {
	run := func() []string {
		tb := New(3)
		var log []string
		names := []string{"a", "b", "c"}
		arm(tb, &log, names...)
		for i := 0; i < 50; i++ {
			k := fmt.Sprintf("k%d", i%7)
			tb.Add(k, names[i%3])
			if i%5 == 0 {
				write(tb, k)
			}
			if i%11 == 0 {
				tb.DropSub(names[(i+1)%3])
				arm(tb, &log, names[(i+1)%3])
			}
		}
		tb.Invalidate(nil, nil)
		return log
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d diverged:\n%v\nvs\n%v", i, got, first)
		}
	}
}
