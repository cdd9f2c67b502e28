package consistency

import (
	"fmt"
	"testing"
)

func TestParseLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Level
		ok   bool
	}{
		{"async", Async, true},
		{"ASYNC", Async, true},
		{"Quorum", Quorum, true},
		{"all", All, true},
		{"none", 0, false},
		{"", 0, false},
	} {
		got, ok := ParseLevel(tc.in)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	if Async.String() != "async" || Quorum.String() != "quorum" || All.String() != "all" {
		t.Errorf("Level strings: %s/%s/%s", Async, Quorum, All)
	}
}

func TestAckedAtCountsReplicasPastTarget(t *testing.T) {
	tr := NewTracker(nil)
	tr.SetReplica("a", 10)
	tr.SetReplica("b", 5)
	tr.SetReplica("c", 0)
	if got := tr.AckedAt(5); got != 2 {
		t.Fatalf("AckedAt(5) = %d, want 2", got)
	}
	if got := tr.AckedAt(0); got != 3 {
		t.Fatalf("AckedAt(0) = %d, want 3", got)
	}
	if got := tr.MinAckOffset(); got != 0 {
		t.Fatalf("MinAckOffset = %d", got)
	}
	tr.DropReplica("c")
	if got := tr.AckedAt(5); got != 2 {
		t.Fatalf("AckedAt(5) after drop = %d", got)
	}
	if got := tr.MinAckOffset(); got != 5 {
		t.Fatalf("MinAckOffset after drop = %d", got)
	}
}

func TestWaiterFiresInFIFOOrderOnProgress(t *testing.T) {
	tr := NewTracker(nil)
	tr.SetReplica("a", 0)
	tr.SetReplica("b", 0)
	var fired []int
	park := func(id int, target int64, need int) *Waiter {
		w := &Waiter{Target: target, Need: need, Owner: uint64(id),
			Fire: func(acked int) { fired = append(fired, id) }}
		tr.Park(w)
		return w
	}
	park(1, 10, 1)
	park(2, 10, 2)
	park(3, 20, 1)
	if tr.Waiting() != 3 {
		t.Fatalf("Waiting = %d", tr.Waiting())
	}
	tr.Ack("a", 10) // satisfies 1 only
	tr.Ack("b", 15) // satisfies 2
	tr.Ack("a", 25) // satisfies 3
	if want := []int{1, 2, 3}; len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if tr.Waiting() != 0 {
		t.Fatalf("Waiting after fire = %d", tr.Waiting())
	}
}

func TestFinishNowFiresWithCurrentCount(t *testing.T) {
	tr := NewTracker(nil)
	tr.SetReplica("a", 7)
	got := -1
	w := &Waiter{Target: 10, Need: 2, Fire: func(acked int) { got = acked }}
	tr.Park(w)
	tr.FinishNow(w) // timeout path: reply with however many acked
	if got != 0 {
		t.Fatalf("FinishNow fired with %d, want 0 (nobody past 10)", got)
	}
	if tr.Waiting() != 0 {
		t.Fatalf("timed-out waiter still parked: %d", tr.Waiting())
	}
	if w.Done() != true {
		t.Fatal("waiter not marked done")
	}
	tr.FinishNow(w) // idempotent
	if got != 0 {
		t.Fatal("double fire")
	}
}

func TestDropOwnerDiscardsWithoutFiring(t *testing.T) {
	tr := NewTracker(nil)
	tr.SetReplica("a", 0)
	fired := false
	stopped := false
	tr.Park(&Waiter{Target: 5, Need: 1, Owner: 42,
		Fire: func(int) { fired = true },
		Stop: func() { stopped = true }})
	tr.ParkWrite(42, 5, 1, func() { fired = true })
	tr.NoteWrite(42, 5)
	tr.DropOwner(42)
	if tr.Waiting() != 0 || tr.Parked() != 0 {
		t.Fatalf("leak: waiting=%d parked=%d", tr.Waiting(), tr.Parked())
	}
	if !stopped {
		t.Fatal("timer not cancelled on disconnect")
	}
	if tr.LastWrite(42) != 0 {
		t.Fatalf("client offset leaked: %d", tr.LastWrite(42))
	}
	tr.Ack("a", 10)
	if fired {
		t.Fatal("dropped waiter fired after disconnect")
	}
}

func TestParkedWriteReleasesOnQuorum(t *testing.T) {
	tr := NewTracker(nil)
	tr.SetReplica("a", 0)
	tr.SetReplica("b", 0)
	var fired []int64
	tr.ParkWrite(1, 10, 2, func() { fired = append(fired, 10) })
	tr.ParkWrite(1, 20, 2, func() { fired = append(fired, 20) })
	tr.Ack("a", 30)
	if len(fired) != 0 {
		t.Fatalf("released on one ack: %v", fired)
	}
	tr.Ack("b", 12)
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired %v, want [10]", fired)
	}
	tr.Ack("b", 20)
	if len(fired) != 2 || fired[1] != 20 {
		t.Fatalf("fired %v, want [10 20]", fired)
	}
	if tr.Parked() != 0 {
		t.Fatalf("Parked = %d", tr.Parked())
	}
}

// TestReleaseUpToFiresEverythingBelowWatermark: the NIC's msgAckRelease is
// authoritative — it already verified the quorum — so the watermark releases
// parked writes regardless of what the tracker's (possibly stale) replica
// offsets say, but never past it.
func TestReleaseUpToFiresEverythingBelowWatermark(t *testing.T) {
	tr := NewTracker(nil)
	var fired []int64
	tr.ParkWrite(1, 10, 2, func() { fired = append(fired, 10) })
	tr.ParkWrite(1, 20, 3, func() { fired = append(fired, 20) })
	tr.ParkWrite(1, 30, 1, func() { fired = append(fired, 30) })
	tr.ReleaseUpTo(20)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 20 {
		t.Fatalf("fired %v, want [10 20]", fired)
	}
	if tr.Parked() != 1 {
		t.Fatalf("Parked = %d, want 1", tr.Parked())
	}
	tr.ReleaseUpTo(29)
	if len(fired) != 2 {
		t.Fatalf("watermark 29 released offset 30: %v", fired)
	}
	tr.ReleaseUpTo(30)
	if len(fired) != 3 {
		t.Fatalf("fired %v, want 3 entries", fired)
	}
}

func TestSetAllBulkOffsets(t *testing.T) {
	tr := NewTracker(nil)
	fired := 0
	tr.Park(&Waiter{Target: 10, Need: 2, Fire: func(acked int) {
		fired = acked
	}})
	tr.SetAll([]int64{15, 12, 3})
	if fired != 2 {
		t.Fatalf("waiter fired with %d, want 2", fired)
	}
	if got := tr.ReplicaCount(); got != 3 {
		t.Fatalf("ReplicaCount = %d", got)
	}
	if got := tr.MinAckOffset(); got != 3 {
		t.Fatalf("MinAckOffset = %d", got)
	}
	// Shrinking reports drop replicas.
	tr.SetAll([]int64{20})
	if got := tr.ReplicaCount(); got != 1 {
		t.Fatalf("ReplicaCount after shrink = %d", got)
	}
}

func TestNoteWriteIsMonotone(t *testing.T) {
	tr := NewTracker(nil)
	tr.NoteWrite(1, 10)
	tr.NoteWrite(1, 5) // stale merge order must not regress the offset
	if got := tr.LastWrite(1); got != 10 {
		t.Fatalf("LastWrite = %d, want 10", got)
	}
}

// TestParkReplyReleasesThroughBoundCallback: a reply parked as a value record
// reaches the one bound Release with its owner, sequence number and bytes, in
// park order, whether a watermark or the replicas' acks release it, and a
// disconnected owner's records are dropped unreleased.
func TestParkReplyReleasesThroughBoundCallback(t *testing.T) {
	tr := NewTracker(nil)
	var got []string
	tr.Release = func(owner, seq uint64, reply []byte) { got = append(got, fmt.Sprintf("%d/%d/%s", owner, seq, reply)) }
	tr.SetReplica("a", 0)
	tr.ParkReply(1, 7, 10, 1, []byte("+OK"))
	tr.ParkReply(2, 3, 20, 1, []byte(":1"))
	tr.ParkReply(1, 8, 30, 1, []byte("+OK"))
	tr.ParkReply(3, 0, 40, 1, []byte("+OK"))
	tr.ReleaseUpTo(20)
	tr.DropOwner(3)
	tr.Ack("a", 40)
	if want := "[1/7/+OK 2/3/:1 1/8/+OK]"; fmt.Sprint(got) != want || tr.Parked() != 0 {
		t.Fatalf("released %v with %d parked, want %s and none", got, tr.Parked(), want)
	}
}

// TestParkAndReleaseAllocations: parking a reply and releasing it — by
// watermark or by acks — allocates nothing once the record slice has grown.
func TestParkAndReleaseAllocations(t *testing.T) {
	tr := NewTracker(nil)
	released := 0
	tr.Release = func(uint64, uint64, []byte) { released++ }
	tr.SetReplica("a", 0)
	reply := []byte("+OK\r\n")
	off := int64(0)
	round := func() {
		for owner := uint64(0); owner < 8; owner++ {
			off += 100
			tr.ParkReply(owner, uint64(off), off, 1, reply)
		}
		tr.ReleaseUpTo(off - 400)
		tr.Ack("a", off)
	}
	round()
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("parking and releasing 8 replies allocated %.1f times, want 0", n)
	}
	if released != 8*202 || tr.Parked() != 0 {
		t.Fatalf("released %d with %d parked, want %d and none", released, tr.Parked(), 8*202)
	}
}
