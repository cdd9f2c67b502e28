package ring

import (
	"math/rand"
	"testing"
)

// The queue against a plain slice, over random pushes and pops that wrap the
// buffer and grow it while it is wrapped.
func TestQueueMatchesSliceModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	var q Queue[int]
	var model []int
	next := 0
	for step := 0; step < 20000; step++ {
		// Drift between mostly-filling and mostly-draining phases.
		if push := rnd.Intn(100) < 35+30*((step/1000)%2); push || len(model) == 0 {
			q.Push(next)
			model = append(model, next)
			next++
		} else {
			if got, want := q.Peek(), model[0]; got != want {
				t.Fatalf("step %d: Peek = %d, want %d", step, got, want)
			}
			if got, want := q.Pop(), model[0]; got != want {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, want)
			}
			model = model[1:]
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(model))
		}
		if i := len(model) / 2; i < len(model) && *q.At(i) != model[i] {
			t.Fatalf("step %d: At(%d) = %d, want %d", step, i, *q.At(i), model[i])
		}
	}
	q.Reset()
	if q.Len() != 0 {
		t.Fatal("Reset left elements behind")
	}
	q.Push(7)
	if q.Pop() != 7 {
		t.Fatal("queue unusable after Reset")
	}
}

func TestPopReleasesWhatItReturns(t *testing.T) {
	var q Queue[*int]
	q.Push(new(int))
	q.Pop()
	if q.buf[0] != nil {
		t.Fatal("Pop left the popped pointer in the buffer: the queue would pin it")
	}
}

func TestSteadyStateDoesNotAllocate(t *testing.T) {
	var q Queue[[2]int]
	for i := 0; i < 64; i++ {
		q.Push([2]int{i, i})
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1000; i++ {
			q.Push(q.Pop())
		}
	})
	if allocs != 0 {
		t.Fatalf("Push/Pop at constant depth allocates %.1f times per 1000", allocs)
	}
}
