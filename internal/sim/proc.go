package sim

import "skv/internal/ring"

// Proc models a single-threaded event-loop process (a Redis server, a
// Nic-KV instance, a benchmark client) pinned to a Core. Incoming events —
// message deliveries, timer fires — are queued and serviced one at a time in
// arrival order.
//
// The wakeup cost models the epoll_wait return / completion-channel wake
// path: it is charged only on an idle→busy transition, so a saturated
// process amortizes it across the batch of queued events, exactly the
// adaptive-batching effect that lets a single Redis thread reach hundreds of
// kops/s.
type Proc struct {
	Core *Core
	eng  *Engine

	// WakeupCost is charged when the process transitions from idle to busy.
	WakeupCost Duration

	queue     ring.Queue[queuedTask]
	scheduled bool
	// running is the effect of the task being serviced; complete is
	// p.finish, bound once and handed to the core for every task.
	running  func()
	complete func()

	// Wakeups counts idle→busy transitions (for CPU-efficiency reporting).
	Wakeups uint64
	// Handled counts serviced tasks.
	Handled uint64
}

type queuedTask struct {
	cost Duration
	fn   func()
}

// NewProc creates a process on the given core.
func NewProc(eng *Engine, core *Core, wakeup Duration) *Proc {
	p := &Proc{Core: core, eng: eng, WakeupCost: wakeup}
	p.complete = p.finish
	return p
}

// Post enqueues a task that consumes cost CPU before its effects (fn) are
// applied. fn runs at the task's completion time and may consume further CPU
// with p.Core.Charge; any message it sends departs at the charged time.
func (p *Proc) Post(cost Duration, fn func()) {
	p.queue.Push(queuedTask{cost: cost, fn: fn})
	if !p.scheduled {
		p.scheduled = true
		wake := Duration(0)
		if p.Core.Idle() {
			wake = p.WakeupCost
			p.Wakeups++
		}
		p.runNext(wake)
	}
}

func (p *Proc) runNext(extra Duration) {
	t := p.queue.Pop()
	p.running = t.fn
	p.Core.Exec(extra+t.cost, p.complete)
}

// finish runs at the serviced task's completion time: its effect, then the
// next queued task.
func (p *Proc) finish() {
	p.Handled++
	if fn := p.running; fn != nil {
		p.running = nil
		fn()
	}
	if p.queue.Len() > 0 {
		p.runNext(0)
	} else {
		p.scheduled = false
	}
}

// QueueLen reports the number of tasks waiting (not counting the one being
// serviced).
func (p *Proc) QueueLen() int { return p.queue.Len() }
