package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refQueue is the event queue as it was before events moved into a recycled
// slab: heap-allocated events ordered by container/heap on (at, seq),
// cancelled lazily. The model test drives it and the engine with the same
// seeded operations and demands the same firing order.
type refEvent struct {
	at       Time
	seq      uint64
	id       int
	canceled bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// TestEventQueueMatchesReferenceModel: seeded random At/After/Cancel/Every/
// Stop against the reference queue, in rounds separated by partial runs so
// that slots freed by one round are reused by the next while handles to
// their former events are still being cancelled. Some events, when they
// fire, schedule a child and cancel an earlier handle from inside Run. The
// engine must fire exactly the events the reference fires, in the same order
// at the same times, with the same Processed and Pending.
func TestEventQueueMatchesReferenceModel(t *testing.T) {
	type fired struct {
		id int
		at Time
	}
	// plan is what an event does when it fires, decided when it is scheduled
	// so that both queues replay it identically.
	type plan struct {
		child  Duration // delay of the event it schedules; < 0: none
		cancel int      // index of the handle it cancels; < 0: none
	}
	type refTicker struct {
		period  Duration
		stopped bool
		ev      *refEvent
	}
	const childID = 1 << 20
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		e := New(seed)
		var ref refQueue
		var refSeq uint64
		refSchedule := func(at Time, id int) *refEvent {
			refSeq++
			ev := &refEvent{at: at, seq: refSeq, id: id}
			heap.Push(&ref, ev)
			return ev
		}

		var got, want []fired
		var handles []Event
		var refHandles []*refEvent
		var plans []plan // by event id
		var tickers []*Ticker
		var refTickers []*refTicker
		tickerOf := map[int]*refTicker{} // by event id

		fire := func(id int) func() {
			return func() {
				got = append(got, fired{id, e.Now()})
				if id >= childID {
					return
				}
				if pl := plans[id]; pl.child >= 0 {
					e.After(pl.child, func() { got = append(got, fired{id + childID, e.Now()}) })
				}
				if pl := plans[id]; pl.cancel >= 0 {
					handles[pl.cancel].Cancel()
				}
			}
		}
		refFire := func(ev *refEvent) {
			want = append(want, fired{ev.id, ev.at})
			if rt := tickerOf[ev.id]; rt != nil {
				if !rt.stopped {
					rt.ev = refSchedule(ev.at.Add(rt.period), ev.id)
				}
				return
			}
			if ev.id >= childID {
				return
			}
			if pl := plans[ev.id]; pl.child >= 0 {
				refSchedule(ev.at.Add(pl.child), ev.id+childID)
			}
			if pl := plans[ev.id]; pl.cancel >= 0 {
				refHandles[pl.cancel].canceled = true
			}
		}

		for round := 0; round < 40; round++ {
			now := e.Now()
			for i := 0; i < 30; i++ {
				switch op := rnd.Intn(10); {
				case op < 5: // At / After
					id := len(plans)
					pl := plan{child: -1, cancel: -1}
					if rnd.Intn(3) == 0 {
						pl.child = Duration(rnd.Intn(30))
					}
					if len(handles) > 0 && rnd.Intn(4) == 0 {
						pl.cancel = rnd.Intn(len(handles))
					}
					plans = append(plans, pl)
					d := Duration(rnd.Intn(50))
					if op%2 == 0 {
						handles = append(handles, e.At(now.Add(d), fire(id)))
					} else {
						handles = append(handles, e.After(d, fire(id)))
					}
					refHandles = append(refHandles, refSchedule(now.Add(d), id))
				case op < 7: // Cancel a random handle, stale or not
					if len(handles) > 0 {
						i := rnd.Intn(len(handles))
						handles[i].Cancel()
						refHandles[i].canceled = true
					}
				case op < 9: // Every
					if len(tickers) < 4 {
						id := len(plans)
						plans = append(plans, plan{child: -1, cancel: -1})
						rt := &refTicker{period: Duration(1 + rnd.Intn(40))}
						tickers = append(tickers, e.Every(rt.period, fire(id)))
						rt.ev = refSchedule(now.Add(rt.period), id)
						refTickers = append(refTickers, rt)
						tickerOf[id] = rt
					}
				default: // Stop
					if len(tickers) > 0 {
						i := rnd.Intn(len(tickers))
						tickers[i].Stop()
						refTickers[i].stopped = true
						refTickers[i].ev.canceled = true
					}
				}
			}
			until := now.Add(Duration(1 + rnd.Intn(60)))
			var refProcessed uint64
			for ref.Len() > 0 && ref[0].at <= until {
				if ev := heap.Pop(&ref).(*refEvent); !ev.canceled {
					refProcessed++
					refFire(ev)
				}
			}
			before := e.Processed
			e.Run(until)
			if e.Processed-before != refProcessed {
				t.Fatalf("seed %d round %d: engine processed %d events, reference %d", seed, round, e.Processed-before, refProcessed)
			}
			if e.Pending() != ref.Len() {
				t.Fatalf("seed %d round %d: %d events pending, reference %d", seed, round, e.Pending(), ref.Len())
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is event %d at %v, reference event %d at %v",
					seed, i, got[i].id, got[i].at, want[i].id, want[i].at)
			}
		}
		if len(got) < 300 {
			t.Fatalf("seed %d: only %d events fired; the schedule is not exercising the queue", seed, len(got))
		}
	}
}

// TestStaleHandleCannotCancelSlotReuser pins the generation check: a handle
// whose event has fired names a slot the next event reuses; cancelling
// through the old handle must not touch the new event.
func TestStaleHandleCannotCancelSlotReuser(t *testing.T) {
	e := New(1)
	old := e.At(10, func() {})
	e.Run(0)
	fired := false
	reuser := e.At(20, func() { fired = true })
	if reuser.slot != old.slot {
		t.Fatalf("the freed slot was not reused (old %d, new %d): the test no longer tests anything", old.slot, reuser.slot)
	}
	old.Cancel()
	if old.Canceled() || old.When() != 0 {
		t.Fatalf("stale handle reports Canceled=%v When=%v; want false, 0", old.Canceled(), old.When())
	}
	if reuser.Canceled() || reuser.When() != 20 {
		t.Fatalf("live handle reports Canceled=%v When=%v; want false, 20", reuser.Canceled(), reuser.When())
	}
	e.Run(0)
	if !fired {
		t.Fatal("a stale handle cancelled the event that reused its slot")
	}
	// The zero handle names no event.
	var none Event
	none.Cancel()
	if none.Canceled() || none.When() != 0 {
		t.Fatal("zero Event handle is not inert")
	}
}

// TestSteadyStateSchedulingDoesNotAllocate: with the queue held at depth 64,
// scheduling and firing events — directly, through a Core, through a Proc
// and through a Ticker — allocates nothing once the slab has reached its
// peak.
func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	e := New(1)
	c := NewCore(e, "c", 1.0)
	p := NewProc(e, NewCore(e, "p", 1.0), 5)
	remaining := 0
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			e.After(Duration(1+remaining%97), tick)
		}
	}
	work := func() {}
	ticks := 0
	e.Every(13, func() { ticks++ }) // never stopped: Run below always has a horizon
	run := func(n int) {
		remaining = n
		for i := 0; i < 64; i++ {
			e.After(Duration(i+1), tick)
			c.Exec(3, work)
			p.Post(2, work)
		}
		e.RunFor(Duration(100 * (n + 64)))
	}
	run(1000) // grow the slab, the heap and the queues to their peak
	const events = 2000
	allocs := testing.AllocsPerRun(5, func() { run(events) })
	if perEvent := allocs / events; perEvent != 0 {
		t.Fatalf("steady-state scheduling allocates %.4f times per event (%.0f per run), want 0", perEvent, allocs)
	}
	if ticks == 0 {
		t.Fatal("the ticker never fired")
	}
}
