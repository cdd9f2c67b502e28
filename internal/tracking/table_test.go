package tracking

import (
	"fmt"
	"reflect"
	"testing"
)

func TestAddTakeOrder(t *testing.T) {
	tb := New(16)
	tb.Add("k", "b")
	tb.Add("k", "a")
	tb.Add("k", "b") // dup is idempotent
	if got := tb.Take("k"); !reflect.DeepEqual(got, []string{"b", "a"}) {
		t.Fatalf("Take order = %v, want first-interest order [b a]", got)
	}
	if tb.Take("k") != nil {
		t.Fatal("interest must be one-shot")
	}
	if tb.Len() != 0 || tb.Subscribers() != 0 {
		t.Fatalf("table not empty after Take: len=%d subs=%d", tb.Len(), tb.Subscribers())
	}
}

func TestTakeAllAdmissionOrder(t *testing.T) {
	tb := New(16)
	tb.Add("b", "s1")
	tb.Add("a", "s1")
	tb.Add("c", "s2")
	tb.Take("a") // leaves a tombstone in the fifo
	got := tb.TakeAll()
	want := []Entry{{Key: "b", Subs: []string{"s1"}}, {Key: "c", Subs: []string{"s2"}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TakeAll = %v, want %v", got, want)
	}
	if tb.Len() != 0 {
		t.Fatalf("table not empty after TakeAll: %d", tb.Len())
	}
}

func TestDropSub(t *testing.T) {
	tb := New(16)
	tb.Add("k1", "a")
	tb.Add("k1", "b")
	tb.Add("k2", "a")
	tb.DropSub("a")
	if got := tb.Take("k1"); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("k1 subs after DropSub(a) = %v, want [b]", got)
	}
	if tb.Take("k2") != nil {
		t.Fatal("k2 should be gone once its only subscriber left")
	}
	if tb.Len() != 0 || tb.Subscribers() != 0 {
		t.Fatalf("leak: len=%d subs=%d", tb.Len(), tb.Subscribers())
	}
}

func TestEvictionFIFO(t *testing.T) {
	tb := New(2)
	var evicted []string
	tb.OnEvict = func(key string, subs []string) {
		evicted = append(evicted, fmt.Sprintf("%s:%v", key, subs))
	}
	tb.Add("k1", "a")
	tb.Add("k2", "a")
	tb.Add("k3", "b") // evicts k1
	if want := []string{"k1:[a]"}; !reflect.DeepEqual(evicted, want) {
		t.Fatalf("evicted = %v, want %v", evicted, want)
	}
	if tb.Len() != 2 {
		t.Fatalf("len = %d, want 2", tb.Len())
	}
	// Re-adding an evicted key admits it at the tail.
	tb.Add("k1", "a") // evicts k2
	if want := []string{"k1:[a]", "k2:[a]"}; !reflect.DeepEqual(evicted, want) {
		t.Fatalf("evicted = %v, want %v", evicted, want)
	}
	if tb.Take("k3") == nil || tb.Take("k1") == nil {
		t.Fatal("k3 and k1 should survive")
	}
}

func TestTombstoneCompaction(t *testing.T) {
	tb := New(4)
	// Churn far past 2*Max fifo slots to force compaction repeatedly.
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i)
		tb.Add(k, "s")
		tb.Take(k)
	}
	if tb.fifo.Len() > 2*tb.Max {
		t.Fatalf("fifo not compacted: %d slots", tb.fifo.Len())
	}
	if tb.Len() != 0 {
		t.Fatalf("len = %d, want 0", tb.Len())
	}
	// Table still works after compaction.
	tb.Add("x", "s")
	if got := tb.Take("x"); !reflect.DeepEqual(got, []string{"s"}) {
		t.Fatalf("Take after churn = %v", got)
	}
}

func TestDeterministicUnderChurn(t *testing.T) {
	run := func() []string {
		tb := New(3)
		var log []string
		tb.OnEvict = func(key string, subs []string) {
			log = append(log, fmt.Sprintf("evict %s %v", key, subs))
		}
		names := []string{"a", "b", "c"}
		for i := 0; i < 50; i++ {
			k := fmt.Sprintf("k%d", i%7)
			tb.Add(k, names[i%3])
			if i%5 == 0 {
				log = append(log, fmt.Sprintf("take %s %v", k, tb.Take(k)))
			}
			if i%11 == 0 {
				tb.DropSub(names[(i+1)%3])
			}
		}
		for _, e := range tb.TakeAll() {
			log = append(log, fmt.Sprintf("rest %s %v", e.Key, e.Subs))
		}
		return log
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d diverged:\n%v\nvs\n%v", i, got, first)
		}
	}
}
