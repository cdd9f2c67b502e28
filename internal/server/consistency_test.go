package server

import (
	"slices"
	"strings"
	"testing"

	"skv/internal/consistency"
	"skv/internal/replstream"
	"skv/internal/resp"
	"skv/internal/sim"
)

// quorumServer builds a master whose default write consistency is quorum(w),
// optionally sharded.
func (w *world) quorumServer(name string, shards, qw int) *Server {
	return w.build(Options{Name: name, Params: w.shaped(shards, 0), WriteConsistency: consistency.Quorum, WriteQuorum: qw})
}

// ---- WAIT edge cases (satellite: blocking semantics) ---------------------

// TestWaitZeroTimeoutBlocksWithoutTimer: WAIT <n> 0 must block indefinitely
// — arming a zero-duration timer would instead fire the timeout path
// immediately and reply with the current count.
func TestWaitZeroTimeoutBlocksWithoutTimer(t *testing.T) {
	w := newWorld(61)
	master := w.server("m", 6379)
	slave := w.server("sl", 6379)
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	c := w.dial(t, master)
	c.do(t, "SET", "k", "v")
	// Two replicas can never ack with one attached: the WAIT must still be
	// parked (not timed out, not errored) after multiple seconds.
	before := len(c.got)
	w.eng.After(0, func() { c.conn.Send(resp.EncodeCommand("WAIT", "2", "0")) })
	w.eng.Run(w.eng.Now().Add(5 * sim.Second))
	if len(c.got) != before {
		t.Fatalf("WAIT 2 0 replied %s; want indefinite block", c.got[len(c.got)-1].String())
	}
	if master.Acks().Waiting() != 1 {
		t.Fatalf("blocked waiter not parked: Waiting=%d", master.Acks().Waiting())
	}
	// A satisfiable WAIT with timeout 0 resolves on replica progress alone.
	c2 := w.dial(t, master)
	c2.do(t, "SET", "k2", "v")
	before2 := len(c2.got)
	w.eng.After(0, func() { c2.conn.Send(resp.EncodeCommand("WAIT", "1", "0")) })
	w.eng.Run(w.eng.Now().Add(700 * sim.Millisecond))
	if len(c2.got) <= before2 {
		t.Fatal("WAIT 1 0 never resolved on ack progress")
	}
	if v := c2.got[len(c2.got)-1]; v.Type != resp.TypeInteger || v.Int < 1 {
		t.Fatalf("WAIT 1 0: %s", v.String())
	}
}

// TestWaitNeedZeroImmediate: WAIT 0 <t> replies in the same beat with the
// replica count at the client's write offset, even while that write is
// still unreplicated.
func TestWaitNeedZeroImmediate(t *testing.T) {
	w := newWorld(62)
	master := w.server("m", 6379)
	slave := w.server("sl", 6379)
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	c := w.dial(t, master)
	before := len(c.got)
	w.eng.After(0, func() {
		// Pipelined SET+WAIT: the WAIT runs before any ack can arrive.
		pipe := append(resp.EncodeCommand("SET", "k", "v"), resp.EncodeCommand("WAIT", "0", "500")...)
		c.conn.Send(pipe)
	})
	w.eng.Run(w.eng.Now().Add(10 * sim.Millisecond)) // ≪ ack cron and timeout
	if len(c.got) != before+2 {
		t.Fatalf("got %d replies, want SET+WAIT immediately", len(c.got)-before)
	}
	if v := c.got[len(c.got)-1]; v.Type != resp.TypeInteger {
		t.Fatalf("WAIT 0: %s", v.String())
	}
}

// TestWaitAfterFailoverTargetsPromotedMaster: after the old master dies and
// a slave is promoted with a re-pointed replica, WAIT issued against the
// promoted master must resolve from the PROMOTED node's ack tracker — its
// own replica's progress — not from any state inherited from the old
// topology.
func TestWaitAfterFailoverTargetsPromotedMaster(t *testing.T) {
	w := newWorld(63)
	master := w.server("m", 6379)
	s1 := w.server("s1", 6379)
	s2 := w.server("s2", 6379)
	s1.SlaveOf(master.Stack().Endpoint(), 6379)
	s2.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	// Failover: the master dies, s1 takes over, s2 re-points to s1.
	master.Crash()
	s1.PromoteToMaster()
	s2.SlaveOf(s1.Stack().Endpoint(), 6379)
	w.run()
	c := w.dial(t, s1)
	if v := c.do(t, "SET", "k", "after-failover"); !v.IsOK() {
		t.Fatalf("SET on promoted master: %s", v.String())
	}
	before := len(c.got)
	w.eng.After(0, func() { c.conn.Send(resp.EncodeCommand("WAIT", "1", "800")) })
	w.eng.Run(w.eng.Now().Add(1 * sim.Second))
	if len(c.got) <= before {
		t.Fatal("WAIT on promoted master never replied")
	}
	if v := c.got[len(c.got)-1]; v.Type != resp.TypeInteger || v.Int != 1 {
		t.Fatalf("WAIT after failover: %s (want 1 — s2's ack against the promoted master)", v.String())
	}
}

// ---- Quorum write path ---------------------------------------------------

// TestQuorumWriteParksReplyUntilAck: with WriteConsistency=quorum the write
// executes immediately but its reply is withheld until the slave's ack
// covers it; reads on other connections are never blocked.
func TestQuorumWriteParksReplyUntilAck(t *testing.T) {
	w := newWorld(64)
	master := w.quorumServer("m", 0, 1)
	slave := w.server("sl", 6379)
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	c := w.dial(t, master)
	other := w.dial(t, master)
	before := len(c.got)
	w.eng.After(0, func() { c.conn.Send(resp.EncodeCommand("SET", "k", "v")) })
	w.eng.Run(w.eng.Now().Add(5 * sim.Millisecond)) // ≪ the 100ms ack cron
	if len(c.got) != before {
		t.Fatalf("quorum SET replied before any slave ack: %s", c.got[len(c.got)-1].String())
	}
	if master.Acks().Parked() != 1 {
		t.Fatalf("Parked = %d, want 1", master.Acks().Parked())
	}
	// The write itself already executed — other clients see it.
	if v := other.do(t, "GET", "k"); v.String() != "v" {
		t.Fatalf("GET during park: %s", v.String())
	}
	w.eng.Run(w.eng.Now().Add(500 * sim.Millisecond))
	if len(c.got) <= before {
		t.Fatal("quorum SET never released")
	}
	if v := c.got[len(c.got)-1]; !v.IsOK() {
		t.Fatalf("released reply: %s", v.String())
	}
	if master.Acks().Parked() != 0 {
		t.Fatalf("Parked after release = %d", master.Acks().Parked())
	}
}

// TestQuorumPipelinedReplyOrder: a parked write must not let later replies
// on the same connection overtake it. Routed writes park holding their
// re-sequencer turn, the pipelined GET's reply queues behind the gated SET,
// and a barrier write (FLUSHALL) parks without deadlocking the fence.
func TestQuorumPipelinedReplyOrder(t *testing.T) {
	eachLayout(t, 66, layouts, func(t *testing.T, w *world, l layout) {
		master := w.build(Options{Name: "m", Params: w.shaped(l.shards, l.listeners),
			WriteConsistency: consistency.Quorum, WriteQuorum: 1})
		slave := w.server("sl", 6379)
		slave.SlaveOf(master.Stack().Endpoint(), 6379)
		w.run()
		c := w.dial(t, master)
		before := len(c.got)
		if got := c.sendPipe(5*sim.Millisecond, pipeOf("SET a 1", "GET a", "FLUSHALL", "DBSIZE")); len(got) != 0 {
			t.Fatalf("replies surfaced while the SET is parked (overtook the gate): %v", render(got))
		}
		w.eng.Run(w.eng.Now().Add(900 * sim.Millisecond))
		if got, want := render(c.got[before:]), []string{"OK", "1", "OK", ":0"}; strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("replies after release %v, want %v", got, want)
		}
	})
}

// ---- SKV.CONSISTENCY per-connection override -----------------------------

func TestConsistencyCommandReportAndOverride(t *testing.T) {
	w := newWorld(67)
	master := w.server("m", 6379)
	slave := w.server("sl", 6379)
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	c := w.dial(t, master)
	if v := c.do(t, "SKV.CONSISTENCY"); v.String() != "async" {
		t.Fatalf("default level: %s", v.String())
	}
	if v := c.do(t, "SKV.CONSISTENCY", "quorum", "1"); !v.IsOK() {
		t.Fatalf("set quorum: %s", v.String())
	}
	if v := c.do(t, "SKV.CONSISTENCY"); v.String() != "quorum 1" {
		t.Fatalf("report after override: %s", v.String())
	}
	// The override gates this connection's writes now.
	before := len(c.got)
	w.eng.After(0, func() { c.conn.Send(resp.EncodeCommand("SET", "k", "v")) })
	w.eng.Run(w.eng.Now().Add(5 * sim.Millisecond))
	if len(c.got) != before {
		t.Fatal("override did not gate the write")
	}
	w.eng.Run(w.eng.Now().Add(500 * sim.Millisecond))
	if len(c.got) <= before || !c.got[len(c.got)-1].IsOK() {
		t.Fatal("gated write never released")
	}
	// Dropping the override restores immediate replies.
	if v := c.do(t, "SKV.CONSISTENCY", "default"); !v.IsOK() {
		t.Fatalf("reset: %s", v.String())
	}
	before = len(c.got)
	w.eng.After(0, func() { c.conn.Send(resp.EncodeCommand("SET", "k2", "v")) })
	w.eng.Run(w.eng.Now().Add(5 * sim.Millisecond))
	if len(c.got) != before+1 || !c.got[len(c.got)-1].IsOK() {
		t.Fatal("async write did not reply immediately after reset")
	}
	// Another connection is unaffected by the override.
	c2 := w.dial(t, master)
	if v := c2.do(t, "SET", "k3", "v"); !v.IsOK() {
		t.Fatalf("other connection gated: %s", v.String())
	}
}

// TestGatedWriteCarriesItsGateIntoTheStream: the acknowledgment a write's
// reply waits for enters the replication stream with the write, so the batch
// handed to an offload layer says what its replies are gated on — the
// connection's level at the moment the command was admitted, nothing for an
// async write — and there is no second notification to race the bytes.
func TestGatedWriteCarriesItsGateIntoTheStream(t *testing.T) {
	eachLayout(t, 69, layouts, func(t *testing.T, w *world, l layout) {
		master := w.build(Options{Name: "m", Params: w.shaped(l.shards, l.listeners)})
		var gates []replstream.Gate
		master.OnPropagate = func(b replstream.Batch) { gates = append(gates, b.Gate) }
		c := w.dial(t, master)
		c.sendPipe(5*sim.Millisecond, pipeOf("SET k 0", "SKV.CONSISTENCY quorum 2", "SET k 1",
			"SKV.CONSISTENCY all", "SET k 2", "SKV.CONSISTENCY async", "SET k 3"))
		want := []replstream.Gate{0, replstream.QuorumGate(2), replstream.GateAll, 0}
		if !slices.Equal(gates, want) {
			t.Fatalf("batch gates %#x, want %#x", gates, want)
		}
		if parked := master.Acks().Parked(); parked != 2 {
			t.Fatalf("%d replies parked, want the quorum and the all write", parked)
		}
	})
}

func TestConsistencyCommandErrors(t *testing.T) {
	w := newWorld(68)
	master := w.server("m", 6379)
	c := w.dial(t, master)
	if v := c.do(t, "SKV.CONSISTENCY", "eventual"); !v.IsError() {
		t.Fatalf("unknown level accepted: %s", v.String())
	}
	if v := c.do(t, "SKV.CONSISTENCY", "async", "2"); !v.IsError() {
		t.Fatalf("W on async accepted: %s", v.String())
	}
	if v := c.do(t, "SKV.CONSISTENCY", "all", "2"); !v.IsError() {
		t.Fatalf("W on all accepted: %s", v.String())
	}
	if v := c.do(t, "SKV.CONSISTENCY", "quorum", "0"); !v.IsError() {
		t.Fatalf("W=0 accepted: %s", v.String())
	}
	if v := c.do(t, "SKV.CONSISTENCY", "quorum", "x"); !v.IsError() {
		t.Fatalf("W=x accepted: %s", v.String())
	}
	if v := c.do(t, "SKV.CONSISTENCY", "quorum", "2", "3"); !v.IsError() {
		t.Fatalf("arity accepted: %s", v.String())
	}
}

// ---- Disconnect hygiene (satellite: no leaks on client teardown) ---------

// TestDisconnectDropsWaitersAndParkedWrites: a client that vanishes while a
// WAIT is blocked and a quorum write is parked must leave nothing behind —
// no waiter, no parked reply, no per-client offset.
func TestDisconnectDropsWaitersAndParkedWrites(t *testing.T) {
	w := newWorld(69)
	master := w.quorumServer("m", 0, 2) // W=2 with one slave: parks forever
	slave := w.server("sl", 6379)
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()

	cw := w.dial(t, master) // parks a write
	w.eng.After(0, func() { cw.conn.Send(resp.EncodeCommand("SET", "k", "v")) })
	cb := w.dial(t, master) // blocks a WAIT (needs its own write first)
	w.eng.After(0, func() { cb.conn.Send(resp.EncodeCommand("SKV.CONSISTENCY", "async")) })
	w.eng.After(0, func() { cb.conn.Send(resp.EncodeCommand("SET", "k2", "v")) })
	w.eng.After(sim.Millisecond, func() { cb.conn.Send(resp.EncodeCommand("WAIT", "2", "0")) })
	w.eng.Run(w.eng.Now().Add(300 * sim.Millisecond))
	if p := master.Acks().Parked(); p != 1 {
		t.Fatalf("Parked = %d, want 1", p)
	}
	if wt := master.Acks().Waiting(); wt != 1 {
		t.Fatalf("Waiting = %d, want 1", wt)
	}
	cw.conn.Close()
	cb.conn.Close()
	w.run()
	if p := master.Acks().Parked(); p != 0 {
		t.Fatalf("parked write leaked across disconnect: %d", p)
	}
	if wt := master.Acks().Waiting(); wt != 0 {
		t.Fatalf("waiter leaked across disconnect: %d", wt)
	}
	// The server keeps serving.
	c := w.dial(t, master)
	if v := c.do(t, "GET", "k"); v.String() != "v" {
		t.Fatalf("GET after disconnects: %s", v.String())
	}
}

// TestShardedHoldQueueSkipsClosedClients: commands held behind a barrier
// fence whose client disconnects before the fence drains must be discarded,
// not executed into a dead connection's reply path. A long pipelined burst
// from another client keeps the dispatch pipeline busy (inflight > 0) so
// the dead client's FLUSHALL+SET sit in the hold queue when its close
// lands.
func TestShardedHoldQueueSkipsClosedClients(t *testing.T) {
	const burst = 300
	w := newWorld(70)
	master := w.quorumServer("m", 4, 1)
	slave := w.server("sl", 6379)
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	busy := w.dial(t, master)
	dead := w.dial(t, master)
	wp := master.WritesPropagated
	w.eng.After(0, func() {
		// One key: every write lands on the same shard, so the shard proc
		// (serial) lags the dispatch proc and the pipeline stays busy long
		// after the dead client's pipe is parsed.
		var pipe []byte
		for i := 0; i < burst; i++ {
			pipe = append(pipe, resp.EncodeCommand("SET", "busy", "v")...)
		}
		busy.conn.Send(pipe)
	})
	// The burst is parsed and routed in one dispatch event ~80μs in, then
	// the shard chews through it for ~450μs. The dead client's barrier
	// lands mid-backlog and its close is processed well before the drain.
	w.eng.After(150*sim.Microsecond, func() {
		pipe := append(resp.EncodeCommand("FLUSHALL"), resp.EncodeCommand("SET", "dead", "x")...)
		dead.conn.Send(pipe)
	})
	w.eng.After(250*sim.Microsecond, func() { dead.conn.Close() })
	w.run()
	w.run()
	if master.Acks().Parked() != 0 || master.Acks().Waiting() != 0 {
		t.Fatalf("leak after disconnect: parked=%d waiting=%d",
			master.Acks().Parked(), master.Acks().Waiting())
	}
	// The dead client's FLUSHALL and SET were both skipped at the drain.
	if master.WritesPropagated != wp+burst {
		t.Fatalf("WritesPropagated = %d, want %d (busy burst only; the dead client's commands dropped)",
			master.WritesPropagated, wp+burst)
	}
	c2 := w.dial(t, master)
	if v := c2.do(t, "GET", "busy"); v.String() != "v" {
		t.Fatalf("dead client's FLUSHALL executed: GET busy = %s", v.String())
	}
	if v := c2.do(t, "GET", "dead"); !v.Null {
		t.Fatalf("dead client's held write executed: %s", v.String())
	}
	// The busy client got all of its replies after the cron ack released
	// them.
	n := 0
	for _, v := range busy.got {
		if v.IsOK() {
			n++
		}
	}
	if n != burst {
		t.Fatalf("busy client got %d OKs, want %d", n, burst)
	}
}

// ---- INFO surface (satellite: consistency observability) -----------------

// TestInfoReplicationConsistencyFieldsDeterministic: the Replication section
// carries the consistency plane's gauges, and two identical runs render the
// section byte-identically.
func TestInfoReplicationConsistencyFieldsDeterministic(t *testing.T) {
	render := func() string {
		w := newWorld(71)
		master := w.quorumServer("m", 0, 1)
		slave := w.server("sl", 6379)
		slave.SlaveOf(master.Stack().Endpoint(), 6379)
		w.run()
		c := w.dial(t, master)
		// The quorum default parks the SET's reply until the ack cron runs;
		// give it a full window before reading INFO.
		w.eng.After(0, func() { c.conn.Send(resp.EncodeCommand("SET", "k", "v")) })
		w.run()
		v := c.do(t, "INFO", "replication")
		return string(v.Str)
	}
	a := render()
	for _, want := range []string{"min_ack_offset:", "parked_writes:0", "write_consistency:quorum"} {
		if !strings.Contains(a, want) {
			t.Fatalf("INFO Replication missing %q:\n%s", want, a)
		}
	}
	if b := render(); a != b {
		t.Fatalf("INFO Replication not deterministic:\n--- run1\n%s\n--- run2\n%s", a, b)
	}
}
