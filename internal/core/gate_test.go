package core

import (
	"fmt"
	"testing"

	"skv/internal/replstream"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/transport"
)

// gateRig is a Nic-KV with three slaves on sink connections: the test plays
// the master's requests and the slaves' reports and reads the releases.
type gateRig struct {
	t        *testing.T
	nic      *NicKV
	toMaster *sinkConn
	slaves   []*sinkConn
	end      int64 // stream offset the next request starts at
}

func newGateRig(t *testing.T) *gateRig {
	u := newUnit(0, DefaultConfig())
	u.eng.RunFor(10 * sim.Millisecond)
	r := &gateRig{t: t, nic: u.nic, toMaster: &sinkConn{record: true}, slaves: []*sinkConn{{}, {}, {}}}
	u.nic.masterConn = r.toMaster
	for i, c := range r.slaves {
		u.nic.registerSlave(fmt.Sprintf("s%d", i), "", 0, c)
	}
	r.toMaster.frames = nil // the msgNewSlave notices
	return r
}

// request plays one replication request carrying gate and returns its end.
func (r *gateRig) request(gate replstream.Gate) int64 {
	cmd := resp.EncodeCommand("SET", "k", "v")
	r.nic.onMessage(r.toMaster, appendOffload(nil, r.end, gate, 1, cmd))
	r.end += int64(len(cmd))
	return r.end
}

func (r *gateRig) report(slave int, off int64) {
	r.nic.onMessage(r.slaves[slave], u64s(msgProgress, uint64(off)))
}

// released returns the watermarks sent to the master since the last call.
func (r *gateRig) released() []int64 {
	var out []int64
	for _, f := range r.toMaster.frames {
		if f[0] != msgAckRelease {
			r.t.Fatalf("unexpected frame to the master: %q", f)
		}
		out = append(out, (&frameReader{b: f, pos: 1}).i64())
	}
	r.toMaster.frames = nil
	return out
}

func (r *gateRig) wantReleased(when string, want ...int64) {
	r.t.Helper()
	if got := r.released(); fmt.Sprint(got) != fmt.Sprint(want) {
		r.t.Fatalf("%s: released %v, want %v", when, got, want)
	}
}

// TestGateReleasesOnlyOnItsQuorum: a gate releases when, and only when, the
// valid slaves it asks for have reported offsets at or past its end — a
// report short of the end, or from too few slaves, releases nothing — and the
// watermark is the gate's end.
func TestGateReleasesOnlyOnItsQuorum(t *testing.T) {
	r := newGateRig(t)
	end := r.request(replstream.QuorumGate(2))
	r.wantReleased("on arrival")
	r.report(0, end)
	r.wantReleased("one slave of two")
	r.report(1, end-1)
	r.wantReleased("second slave one byte short")
	r.report(0, end)
	r.wantReleased("the same slave again")
	r.report(1, end)
	r.wantReleased("second slave at the end", end)
	r.report(2, end)
	r.wantReleased("a report with nothing pending")

	// All: every valid slave; a slave marked down stops counting, and a gate
	// never releases on an empty replica set.
	end = r.request(replstream.GateAll)
	r.report(0, end)
	r.report(1, end)
	r.wantReleased("two of three valid slaves")
	r.nic.markNodeDown(r.nic.nodes[2])
	r.report(0, end)
	r.wantReleased("all of the two slaves left valid", end)
	end = r.request(replstream.GateAll)
	r.nic.markNodeDown(r.nic.nodes[0])
	r.nic.markNodeDown(r.nic.nodes[1])
	r.nic.checkGates()
	r.wantReleased("no valid slave")
	if r.nic.gates.Len() != 1 {
		t.Fatalf("%d gates pending, want the held one", r.nic.gates.Len())
	}
}

// TestGatesReleaseInOrderUnderOneWatermark: the queue is strictly FIFO — a
// satisfied weaker gate behind an unsatisfied stricter one waits — and one
// advance over several gates is one release frame carrying the highest end.
func TestGatesReleaseInOrderUnderOneWatermark(t *testing.T) {
	r := newGateRig(t)
	strict := r.request(replstream.GateAll)
	weak := r.request(replstream.QuorumGate(1))
	mixed := r.request(replstream.QuorumGate(1).Join(replstream.GateAll))
	r.report(0, mixed)
	r.wantReleased("one slave past everything: the all gate at the head holds the quorum-1 gate behind it")
	r.report(1, strict)
	r.wantReleased("two of three at the head gate")
	r.report(2, weak)
	r.wantReleased("head and the gate behind it, one frame", weak)
	r.report(1, mixed)
	r.wantReleased("the joined gate still wants every slave")
	r.report(2, mixed)
	r.wantReleased("every slave", mixed)
	if got := r.nic.mGateReleases.Value(); got != 2 {
		t.Fatalf("%d release frames for three gates, want 2", got)
	}
}

// TestFanOutDemandsReportsOnlyWhileGated: the stream goes out tagged 'c' —
// "report once applied" — exactly while a gate is pending: on the request
// that carries it and on ungated ones trailing it, and plain again after the
// release. No other frame goes to the slaves: one per request.
func TestFanOutDemandsReportsOnlyWhileGated(t *testing.T) {
	r := newGateRig(t)
	tagOf := func() byte { return r.slaves[0].last[0] }
	r.request(0)
	if tagOf() != msgCmdStream {
		t.Fatalf("ungated request fanned out as %q", tagOf())
	}
	r.request(replstream.QuorumGate(1))
	if tagOf() != msgCmdStreamAck {
		t.Fatalf("gated request fanned out as %q", tagOf())
	}
	end := r.request(0)
	if tagOf() != msgCmdStreamAck {
		t.Fatalf("request trailing a pending gate fanned out as %q", tagOf())
	}
	r.report(1, end)
	r.request(0)
	if tagOf() != msgCmdStream {
		t.Fatalf("request after the release fanned out as %q", tagOf())
	}
	for i, c := range r.slaves {
		if c.sends != 4 {
			t.Fatalf("slave %d was sent %d frames for 4 requests", i, c.sends)
		}
	}
}

// dropReleases is the NIC's connection to the master, losing every release.
type dropReleases struct{ transport.Conn }

func (d dropReleases) Send(p []byte) {
	if p[0] != msgAckRelease {
		d.Conn.Send(p)
	}
}

// TestLostReleaseUnblocksOnTheNextStatusFrame: the release watermark is an
// optimisation, not the only way out — if it never arrives, the status frame
// Nic-KV sends with every probe round carries the slaves' offsets to the
// master's tracker, which fires the parked reply on its own need. A lost
// release costs at most one probe period.
func TestLostReleaseUnblocksOnTheNextStatusFrame(t *testing.T) {
	u := newUnit(3, DefaultConfig())
	u.eng.RunFor(50 * sim.Millisecond)
	u.nic.masterConn = dropReleases{u.nic.masterConn}

	argv := [][]byte{[]byte("SET"), []byte("k"), []byte("v")}
	u.master.Store().Exec(0, argv)
	off := u.master.ReplStream().AppendGated(0, argv, replstream.QuorumGate(2))
	var firedAt sim.Time
	u.master.Acks().ParkWrite(1, off, 2, func() { firedAt = u.eng.Now() })

	u.eng.RunFor(10 * sim.Millisecond)
	if got := u.nic.mGateReleases.Value(); got != 1 || u.nic.gates.Len() != 0 {
		t.Fatalf("NIC sent %d releases with %d gates pending, want the gate released", got, u.nic.gates.Len())
	}
	if firedAt != 0 {
		t.Fatalf("reply fired at %v although the release was dropped", firedAt)
	}
	p := u.master.Params()
	u.eng.Run(sim.Time(p.ProbePeriod + 10*sim.Millisecond))
	if firedAt == 0 || u.master.Acks().Parked() != 0 {
		t.Fatalf("reply still parked one probe period (%v) after the lost release", p.ProbePeriod)
	}
	if firedAt < sim.Time(p.ProbePeriod) {
		t.Fatalf("reply fired at %v, before the probe round: not through the status frame", firedAt)
	}
}
