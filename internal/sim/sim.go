// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine drives all SKV cluster experiments in virtual time: a heap
// of timestamped events, a virtual clock, and CPU resources (Core) that
// serialize work the way a single hardware thread does. Determinism is
// guaranteed by tie-breaking simultaneous events on a monotone sequence
// number and by giving every component its own seeded RNG.
//
// Virtual time is measured in integer nanoseconds (Time). All latency and
// throughput numbers reported by the benchmark harness derive from this
// clock, which makes experiment output bit-for-bit reproducible.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time, in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Micros reports the duration in (possibly fractional) microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

// Millis reports the duration in (possibly fractional) milliseconds.
func (d Duration) Millis() float64 { return float64(d) / 1e6 }

// Seconds reports the duration in (possibly fractional) seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Add offsets a point in time by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub reports the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string {
	return fmt.Sprintf("%.6fs", float64(t)/1e9)
}

// Event is a handle to a scheduled callback: the engine-owned slot the event
// lives in plus the generation the slot had when it was scheduled. Slots are
// recycled as soon as their event fires (or is discarded after Cancel), so a
// handle kept past that point is stale; Cancel, Canceled and When on a stale
// handle — one whose slot has since been reused by a later event — do nothing
// and report zero values. The zero Event is a valid handle to no event.
type Event struct {
	eng  *Engine
	slot uint32
	gen  uint32
}

// slot is one entry of the engine's event slab. gen counts how many events
// have occupied it; canceled and at outlive the event until the slot is
// reused, so a handle can still be inspected after its event is gone.
type slot struct {
	fn       func()
	at       Time
	gen      uint32
	canceled bool
}

// current returns the handle's slot while the handle is not stale.
func (ev Event) current() *slot {
	if ev.eng == nil {
		return nil
	}
	if s := &ev.eng.slots[ev.slot]; s.gen == ev.gen {
		return s
	}
	return nil
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (ev Event) Cancel() {
	if s := ev.current(); s != nil {
		s.canceled = true
		s.fn = nil
	}
}

// Canceled reports whether Cancel was called.
func (ev Event) Canceled() bool {
	s := ev.current()
	return s != nil && s.canceled
}

// When reports the virtual time the event is scheduled for.
func (ev Event) When() Time {
	if s := ev.current(); s != nil {
		return s.at
	}
	return 0
}

// queued is one entry of the event queue: the ordering key inline, so sifting
// never touches the slab, and the slot holding the callback.
type queued struct {
	at   Time
	seq  uint64
	slot uint32
}

func (a queued) before(b queued) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is the simulation kernel: a virtual clock plus an event queue.
// It is not safe for concurrent use; the whole simulated world runs on the
// calling goroutine, which is what makes runs deterministic.
//
// Events live in a slab the engine owns (slots, with free listing the
// recycled entries) and are ordered by a 4-ary min-heap on (at, seq). seq is
// unique, so the order is total and does not depend on the heap's shape.
// Once the slab has grown to the peak number of pending events, scheduling
// and firing allocate nothing.
type Engine struct {
	now     Time
	slots   []slot
	free    []uint32
	heap    []queued
	seq     uint64
	rng     *rand.Rand
	stopped bool

	// Processed counts events executed so far (for runaway detection and
	// test assertions).
	Processed uint64
}

// New creates an engine whose component RNGs derive from seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's root RNG. Components that need independent
// streams should use NewRand.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// NewRand derives an independent, deterministic RNG stream for a component.
func (e *Engine) NewRand() *rand.Rand {
	return rand.New(rand.NewSource(e.rng.Int63()))
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var i uint32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{})
		i = uint32(len(e.slots) - 1)
	}
	s := &e.slots[i]
	s.gen++
	s.fn, s.at, s.canceled = fn, t, false
	e.seq++
	e.push(queued{at: t, seq: e.seq, slot: i})
	return Event{eng: e, slot: i, gen: s.gen}
}

// After schedules fn to run d from now. Negative d is clamped to zero.
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// push and pop maintain the 4-ary heap: half the depth of a binary heap, and
// a node's four children share a cache line or two.
func (e *Engine) push(q queued) {
	h := append(e.heap, q)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = q
	e.heap = h
}

func (e *Engine) pop() queued {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if h[c].before(h[least]) {
				least = c
			}
		}
		if !h[least].before(last) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = last
	return top
}

// Ticker is a handle for a periodic schedule created by Every.
type Ticker struct {
	eng     *Engine
	period  Duration
	fn      func()
	tick    func() // t.fire, bound once so re-arming schedules no new closure
	stopped bool
	ev      Event
}

// Stop halts the periodic series. Safe to call multiple times.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}

func (t *Ticker) fire() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.ev = t.eng.After(t.period, t.tick)
	}
}

// Every schedules fn to run every period, starting after the first period.
func (e *Engine) Every(period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	t := &Ticker{eng: e, period: period, fn: fn}
	t.tick = t.fire
	t.ev = e.After(period, t.tick)
	return t
}

// Stop makes Run return after the event currently executing (if any).
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue empties, the horizon passes, or Stop
// is called. A horizon of 0 means "no horizon". It returns the virtual time
// at which it stopped.
func (e *Engine) Run(horizon Time) Time {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		if horizon > 0 && e.heap[0].at > horizon {
			e.now = horizon
			return e.now
		}
		q := e.pop()
		// The slot is free from here on: whatever fn schedules may reuse it,
		// under a new generation.
		s := &e.slots[q.slot]
		fn := s.fn
		s.fn = nil
		e.free = append(e.free, q.slot)
		if s.canceled {
			continue
		}
		e.now = q.at
		e.Processed++
		fn()
	}
	if horizon > 0 && e.now < horizon && !e.stopped {
		e.now = horizon
	}
	return e.now
}

// RunFor advances the simulation by d from the current time (scenario
// scripts read better with relative horizons).
func (e *Engine) RunFor(d Duration) Time { return e.Run(e.now.Add(d)) }

// Pending reports the number of events still queued (including cancelled
// events not yet popped).
func (e *Engine) Pending() int { return len(e.heap) }
