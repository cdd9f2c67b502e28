// Package consistency is the write-consistency plane: one AckTracker owns
// everything the server previously smeared across three layers — per-replica
// acknowledged offsets (baseline REPLCONF ACK or Nic-KV status frames),
// per-client last-write offsets (Redis client->woff), blocked WAITs, and
// parked write replies whose consistency level demands W replica acks before
// the client may see them.
//
// The tracker is deliberately passive simulation-wise: it charges no CPU and
// schedules no events. Callers push progress into it (Ack, SetAll) and it
// synchronously fires the waiters and parked replies that progress satisfies,
// in FIFO order, on the caller's event — so two identical runs retire waiters
// in identical order and the plane adds nothing to the event schedule when
// unused (WriteConsistency=async with no WAITs outstanding).
package consistency

import (
	"strings"

	"skv/internal/metrics"
)

// Level is a write consistency level.
type Level int

const (
	// Async replies to the client before replication fan-out completes —
	// the paper's Nic-KV behavior (§III) and the legacy default. An acked
	// write can be lost in the failover window.
	Async Level = iota
	// Quorum withholds the client reply until W replicas acknowledged the
	// write's replication offset.
	Quorum
	// All withholds the client reply until every currently attached
	// replica acknowledged it.
	All
)

func (l Level) String() string {
	switch l {
	case Quorum:
		return "quorum"
	case All:
		return "all"
	}
	return "async"
}

// ParseLevel resolves a level name (case-insensitive).
func ParseLevel(s string) (Level, bool) {
	switch strings.ToLower(s) {
	case "async":
		return Async, true
	case "quorum":
		return Quorum, true
	case "all":
		return All, true
	}
	return Async, false
}

// Waiter is one blocked WAIT: a client waiting for Need replicas to cover
// Target. Fire receives the satisfied replica count; Stop (optional) cancels
// the caller's timeout timer and runs exactly once, whether the waiter fires
// or is dropped with its client.
type Waiter struct {
	Target int64
	Need   int
	Owner  uint64
	Fire   func(acked int)
	Stop   func()
	done   bool
}

// Done reports whether the waiter has been retired (fired or dropped).
func (w *Waiter) Done() bool { return w.done }

// parkedWrite is a write reply withheld until need replicas cover target: a
// value record the tracker keeps in its own slice, so parking allocates
// nothing once the slice has grown to the deepest backlog of parked writes.
// A reply parked with ParkReply carries its owner's sequence number and
// bytes to the bound Release; one parked with ParkWrite carries its own fire.
type parkedWrite struct {
	target int64
	need   int
	owner  uint64
	seq    uint64
	reply  []byte
	fire   func()
	done   bool
}

// replica is one tracked replica: id is the remote endpoint name on the
// baseline (REPLCONF ACK path), empty when the set arrives in bulk (Nic-KV
// status frames carry offsets without identities).
type replica struct {
	id  string
	off int64
}

// AckTracker is the consistency plane's state for one master.
type AckTracker struct {
	replicas []replica

	clientOff map[uint64]int64

	waiters []*Waiter
	parked  []parkedWrite

	// Release emits a reply parked with ParkReply once its write is covered:
	// the embedding server binds it once, and the tracker hands it the
	// owner, the sequence number and the reply bytes the write parked with.
	Release func(owner, seq uint64, reply []byte)

	// Instruments (nil-safe): the acked-offset watermark, the live parked
	// count, and lifetime park/release counters.
	minAck        *metrics.Gauge
	parkedGauge   *metrics.Gauge
	parkedTotal   *metrics.Counter
	releasedTotal *metrics.Counter
}

// NewTracker builds a tracker; reg may be nil (no instruments).
func NewTracker(reg *metrics.Registry) *AckTracker {
	t := &AckTracker{clientOff: make(map[uint64]int64)}
	if reg != nil {
		t.minAck = reg.Gauge("consistency.min_ack_offset")
		t.parkedGauge = reg.Gauge("consistency.parked_writes")
		t.parkedTotal = reg.Counter("consistency.writes_parked")
		t.releasedTotal = reg.Counter("consistency.writes_released")
	}
	return t
}

// ---- Replica progress ----

// SetAll replaces the whole replica offset set (Nic-KV status frame) and
// fires whatever the new offsets satisfy.
func (t *AckTracker) SetAll(offs []int64) {
	if len(offs) == len(t.replicas) {
		for i, off := range offs {
			t.replicas[i].off = off
		}
	} else {
		t.replicas = t.replicas[:0]
		for _, off := range offs {
			t.replicas = append(t.replicas, replica{off: off})
		}
	}
	t.minAck.Set(t.MinAckOffset())
	t.Check()
}

// SetReplica registers (or re-registers) a replica at a starting offset —
// the PSYNC attach point. Registration alone fires nothing: the legacy
// machinery only re-evaluated waiters on progress reports, and a joining
// replica resolving a WAIT early would change the event schedule.
func (t *AckTracker) SetReplica(id string, off int64) {
	for i := range t.replicas {
		if t.replicas[i].id == id {
			t.replicas[i].off = off
			t.minAck.Set(t.MinAckOffset())
			return
		}
	}
	t.replicas = append(t.replicas, replica{id: id, off: off})
	t.minAck.Set(t.MinAckOffset())
}

// DropReplica forgets a replica (superseded or disconnected channel).
func (t *AckTracker) DropReplica(id string) {
	kept := t.replicas[:0]
	for _, r := range t.replicas {
		if r.id != id {
			kept = append(kept, r)
		}
	}
	t.replicas = kept
	t.minAck.Set(t.MinAckOffset())
}

// Ack records one replica's progress report (REPLCONF ACK) and fires
// whatever it satisfies.
func (t *AckTracker) Ack(id string, off int64) {
	for i := range t.replicas {
		if t.replicas[i].id == id {
			t.replicas[i].off = off
		}
	}
	t.minAck.Set(t.MinAckOffset())
	t.Check()
}

// Offsets reports every tracked replica's acknowledged offset, in
// registration order.
func (t *AckTracker) Offsets() []int64 {
	out := make([]int64, len(t.replicas))
	for i, r := range t.replicas {
		out[i] = r.off
	}
	return out
}

// Replicas reports replica identities and offsets in registration order
// (ids are empty strings for bulk-sourced replicas).
func (t *AckTracker) Replicas() ([]string, []int64) {
	ids := make([]string, len(t.replicas))
	offs := make([]int64, len(t.replicas))
	for i, r := range t.replicas {
		ids[i] = r.id
		offs[i] = r.off
	}
	return ids, offs
}

// ReplicaCount reports how many replicas are tracked.
func (t *AckTracker) ReplicaCount() int { return len(t.replicas) }

// AckedAt counts replicas whose acknowledged offset covers target.
func (t *AckTracker) AckedAt(target int64) int {
	n := 0
	for _, r := range t.replicas {
		if r.off >= target {
			n++
		}
	}
	return n
}

// MinAckOffset is the acked-offset watermark: the highest offset every
// tracked replica has acknowledged (0 with no replicas).
func (t *AckTracker) MinAckOffset() int64 {
	if len(t.replicas) == 0 {
		return 0
	}
	min := t.replicas[0].off
	for _, r := range t.replicas[1:] {
		if r.off < min {
			min = r.off
		}
	}
	return min
}

// ---- Per-client write offsets ----

// NoteWrite records a client's propagated write ending at off. Max-assign:
// a client's writes to different shards can merge out of order.
func (t *AckTracker) NoteWrite(owner uint64, off int64) {
	if off > t.clientOff[owner] {
		t.clientOff[owner] = off
	}
}

// LastWrite reports the replication offset of the client's most recent
// propagated write (0 if it never wrote) — the WAIT target.
func (t *AckTracker) LastWrite(owner uint64) int64 { return t.clientOff[owner] }

// ---- Blocked WAITs ----

// Park blocks a WAIT. The caller has already checked the immediate path.
func (t *AckTracker) Park(w *Waiter) { t.waiters = append(t.waiters, w) }

// Waiting reports the blocked WAIT count (INFO blocked_clients).
func (t *AckTracker) Waiting() int { return len(t.waiters) }

// FinishNow fires a waiter with the current satisfied count regardless of
// whether it is covered — the WAIT timeout path. No-op once retired.
func (t *AckTracker) FinishNow(w *Waiter) {
	if w.done {
		return
	}
	t.retire(w, true)
	t.compactWaiters()
}

// ---- Parked write replies ----

// ParkReply withholds owner's reply to its command seq until need replicas
// cover target (or a ReleaseUpTo watermark passes it); Release then emits it.
// reply is kept as given until then: the caller lends bytes that outlive the
// park.
func (t *AckTracker) ParkReply(owner, seq uint64, target int64, need int, reply []byte) {
	t.park(parkedWrite{target: target, need: need, owner: owner, seq: seq, reply: reply})
}

// ParkWrite is ParkReply for a caller without a bound Release: fire emits
// the reply.
func (t *AckTracker) ParkWrite(owner uint64, target int64, need int, fire func()) {
	t.park(parkedWrite{target: target, need: need, owner: owner, fire: fire})
}

func (t *AckTracker) park(p parkedWrite) {
	t.parked = append(t.parked, p)
	t.parkedTotal.Inc()
	t.parkedGauge.Set(int64(len(t.parked)))
}

// releaseParked fires every live parked write release admits, in park
// order, and compacts the slice if any fired. A record is marked done before
// it fires, and read through its index afterwards: a fire may park a new
// write, which can move the slice.
func (t *AckTracker) releaseParked(release func(p *parkedWrite) bool) {
	fired := false
	for i, n := 0, len(t.parked); i < n; i++ {
		p := &t.parked[i]
		if p.done || !release(p) {
			continue
		}
		p.done = true
		rec := *p
		t.releasedTotal.Inc()
		if rec.fire != nil {
			rec.fire()
		} else {
			t.Release(rec.owner, rec.seq, rec.reply)
		}
		fired = true
	}
	if fired {
		t.compactParked()
	}
}

// Parked reports the live parked-write count.
func (t *AckTracker) Parked() int { return len(t.parked) }

// ReleaseUpTo fires every parked write whose target is covered by the
// watermark, regardless of its W — the authority (Nic-KV) has already
// verified the quorum. Replica offsets are untouched: the watermark says
// "these gates are satisfied", not which replicas satisfied them.
func (t *AckTracker) ReleaseUpTo(watermark int64) {
	t.releaseParked(func(p *parkedWrite) bool { return p.target <= watermark })
}

// ---- Progress evaluation ----

// Check re-evaluates blocked WAITs and parked writes against the current
// replica offsets; called on every progress push and exported for layers
// that substituted their own offsets (legacy Server.CheckWaiters).
func (t *AckTracker) Check() {
	if len(t.waiters) > 0 {
		fired := false
		for _, w := range t.waiters {
			if !w.done && t.AckedAt(w.Target) >= w.Need {
				t.retire(w, true)
				fired = true
			}
		}
		if fired {
			t.compactWaiters()
		}
	}
	if len(t.parked) > 0 {
		t.releaseParked(t.covered)
	}
}

// DropOwner forgets everything owned by a disconnecting client: its write
// offset, its blocked WAITs (timers cancelled, nothing fired — there is no
// connection left to reply to), and its parked write replies.
func (t *AckTracker) DropOwner(owner uint64) {
	delete(t.clientOff, owner)
	changed := false
	for _, w := range t.waiters {
		if !w.done && w.Owner == owner {
			t.retire(w, false)
			changed = true
		}
	}
	if changed {
		t.compactWaiters()
	}
	changed = false
	for i := range t.parked {
		if p := &t.parked[i]; !p.done && p.owner == owner {
			p.done = true
			changed = true
		}
	}
	if changed {
		t.compactParked()
	}
}

// retire marks a waiter done, stops its timer, and optionally fires it.
func (t *AckTracker) retire(w *Waiter, fire bool) {
	w.done = true
	if w.Stop != nil {
		w.Stop()
		w.Stop = nil
	}
	if fire && w.Fire != nil {
		w.Fire(t.AckedAt(w.Target))
	}
}

func (t *AckTracker) compactWaiters() {
	kept := t.waiters[:0]
	for _, w := range t.waiters {
		if !w.done {
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(t.waiters); i++ {
		t.waiters[i] = nil
	}
	t.waiters = kept
}

// covered reports whether p's replicas have acknowledged its write.
func (t *AckTracker) covered(p *parkedWrite) bool { return t.AckedAt(p.target) >= p.need }

func (t *AckTracker) compactParked() {
	kept := t.parked[:0]
	for _, p := range t.parked {
		if !p.done {
			kept = append(kept, p)
		}
	}
	clear(t.parked[len(kept):]) // drop the replies and closures the fired records held
	t.parked = kept
	t.parkedGauge.Set(int64(len(t.parked)))
}
