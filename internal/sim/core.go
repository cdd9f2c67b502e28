package sim

import (
	"fmt"

	"skv/internal/ring"
)

// Core models one hardware thread: a serializing CPU resource. Work
// submitted with Exec runs to completion in FIFO order; a core with
// Speed < 1 (e.g. a SmartNIC ARM core) stretches every cost proportionally.
//
// Costs are expressed at reference-core speed: a cost of 1µs takes 1µs on a
// Speed-1.0 host core and 1µs/Speed on a slower core.
type Core struct {
	eng  *Engine
	name string

	// Speed is the core's throughput relative to the reference host core.
	Speed float64

	queue       ring.Queue[coreTask]
	dispatching bool
	// running is the completion callback of the task in flight; complete is
	// c.finish, bound once: the one event a task schedules carries no
	// closure of its own.
	running  func()
	complete func()

	busyUntil Time
	busyAccum Duration // total busy time, for utilization reporting
	started   Time     // time of first dispatch, for utilization reporting
	everBusy  bool
}

type coreTask struct {
	cost Duration
	fn   func()
}

// NewCore creates a core attached to the engine. speed is relative to the
// reference host core (1.0).
func NewCore(eng *Engine, name string, speed float64) *Core {
	if speed <= 0 {
		panic(fmt.Sprintf("sim: core %s must have positive speed, got %v", name, speed))
	}
	c := &Core{eng: eng, name: name, Speed: speed}
	c.complete = c.finish
	return c
}

// Name reports the identifier given at construction.
func (c *Core) Name() string { return c.name }

// scale converts a reference-speed cost into wall (virtual) time on this core.
func (c *Core) scale(cost Duration) Duration {
	if cost <= 0 {
		return 0
	}
	return Duration(float64(cost)/c.Speed + 0.5)
}

// Exec enqueues work that consumes cost CPU, then runs fn at its completion
// time. Queued work runs strictly FIFO; fn may call Charge to consume
// additional CPU discovered during processing, which delays everything
// queued behind it.
func (c *Core) Exec(cost Duration, fn func()) {
	c.queue.Push(coreTask{cost: cost, fn: fn})
	if !c.dispatching {
		c.dispatching = true
		c.dispatch()
	}
}

func (c *Core) dispatch() {
	t := c.queue.Pop()
	start := c.eng.Now()
	if c.busyUntil > start {
		start = c.busyUntil
	}
	if !c.everBusy {
		c.everBusy = true
		c.started = start
	}
	d := c.scale(t.cost)
	c.busyUntil = start.Add(d)
	c.busyAccum += d
	c.running = t.fn
	c.eng.At(c.busyUntil, c.complete)
}

// finish runs at the in-flight task's completion time: its callback, then
// the next queued task.
func (c *Core) finish() {
	if fn := c.running; fn != nil {
		c.running = nil
		fn()
	}
	if c.queue.Len() > 0 {
		c.dispatch()
	} else {
		c.dispatching = false
	}
}

// Charge consumes additional CPU at the core's current completion point and
// returns the new completion time. It is intended to be called from inside a
// function started by Exec, when the amount of work only becomes known while
// processing (e.g. a command handler that decides to send N replication
// messages). Work queued behind the caller is delayed accordingly.
func (c *Core) Charge(cost Duration) Time {
	now := c.eng.Now()
	if c.busyUntil < now {
		c.busyUntil = now
	}
	d := c.scale(cost)
	c.busyUntil = c.busyUntil.Add(d)
	c.busyAccum += d
	return c.busyUntil
}

// BusyUntil reports the virtual time at which the core becomes free.
func (c *Core) BusyUntil() Time { return c.busyUntil }

// Idle reports whether the core has no queued or in-flight work now.
func (c *Core) Idle() bool { return !c.dispatching && c.busyUntil <= c.eng.Now() }

// QueueLen reports the number of tasks waiting behind the current one.
func (c *Core) QueueLen() int { return c.queue.Len() }

// Utilization reports the fraction of time the core spent busy between its
// first use and the given end time.
func (c *Core) Utilization(end Time) float64 {
	if !c.everBusy || end <= c.started {
		return 0
	}
	total := end.Sub(c.started)
	u := float64(c.busyAccum) / float64(total)
	if u > 1 {
		u = 1
	}
	return u
}

// BusyTime reports the total CPU time consumed on this core so far.
func (c *Core) BusyTime() Duration { return c.busyAccum }
