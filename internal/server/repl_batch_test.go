package server

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"skv/internal/replstream"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/tcpsim"
	"skv/internal/transport"
)

// TestPSyncDedupesSlaveHandles checks the re-sync leak fix: a slave that
// re-runs the sync handshake on a fresh connection supersedes its old
// handle instead of accumulating a second one (which feedSlaves would keep
// charging CPU for and sending to forever).
func TestPSyncDedupesSlaveHandles(t *testing.T) {
	w := newWorld(11)
	master := w.server("m", 6379)
	slave := w.server("sl", 6379)
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	if n := len(master.SlaveAckOffsets()); n != 1 {
		t.Fatalf("handles after first sync: %d", n)
	}
	// The same slave re-syncs on a brand-new connection (transient link
	// blip, agent restart): the master must still track exactly one handle.
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	if n := len(master.SlaveAckOffsets()); n != 1 {
		t.Fatalf("stale slave handle leaked: %d handles", n)
	}
	c := w.dial(t, master)
	c.do(t, "SET", "k", "v")
	w.run()
	reply, _ := slave.Store().Exec(0, [][]byte{[]byte("GET"), []byte("k")})
	if string(reply) != "$1\r\nv\r\n" {
		t.Fatalf("slave did not converge after re-sync: %q", reply)
	}
}

// TestBatchedFeedCoalescesPipelinedWrites checks the ReplStream batching on
// the baseline fan-out path: pipelined writes arriving in one event-loop
// burst ride fewer flushes than commands, and the slave still converges to
// the full keyspace.
func TestBatchedFeedCoalescesPipelinedWrites(t *testing.T) {
	w := newWorld(12)
	w.p.ReplBatchMaxCmds = 4
	master := w.server("m", 6379)
	slave := w.server("sl", 6379)
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	c := w.dial(t, master)
	const writes = 8
	var pipe []byte
	for i := 0; i < writes; i++ {
		pipe = append(pipe, resp.EncodeCommand("SET", fmt.Sprintf("k%d", i), "v")...)
	}
	w.eng.After(0, func() { c.conn.Send(pipe) })
	w.run()
	if master.WritesPropagated != writes {
		t.Fatalf("WritesPropagated=%d", master.WritesPropagated)
	}
	if flushed := master.ReplStream().BatchesFlushed(); flushed >= writes {
		t.Fatalf("no coalescing: %d batches for %d writes", flushed, writes)
	}
	for i := 0; i < writes; i++ {
		reply, _ := slave.Store().Exec(0, [][]byte{[]byte("GET"), []byte(fmt.Sprintf("k%d", i))})
		if string(reply) == "$-1\r\n" {
			t.Fatalf("k%d missing on slave", i)
		}
	}
	if master.ReplOffset() != slave.MasterOffset() {
		t.Fatalf("offsets diverged: master %d, slave %d", master.ReplOffset(), slave.MasterOffset())
	}
}

// TestBatchSizeOnePreservesPerWriteFeeds pins the compatibility contract on
// the default configuration: one flush per propagated write.
func TestBatchSizeOnePreservesPerWriteFeeds(t *testing.T) {
	w := newWorld(13)
	master := w.server("m", 6379)
	slave := w.server("sl", 6379)
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	c := w.dial(t, master)
	for i := 0; i < 5; i++ {
		c.do(t, "SET", fmt.Sprintf("k%d", i), "v")
	}
	if master.ReplStream().BatchesFlushed() != master.WritesPropagated {
		t.Fatalf("batch=1 flushed %d batches for %d writes",
			master.ReplStream().BatchesFlushed(), master.WritesPropagated)
	}
}

// TestPSyncMidBatchGetsConsistentOffsets drives a second slave's sync
// handshake into the middle of a pipelined write burst at a large batch
// size. cmdPSync must flush the pending batch before snapshotting offsets;
// otherwise the joining slave receives the pending bytes twice (backlog
// delta + live flush) and — INCR not being idempotent — diverges.
func TestPSyncMidBatchGetsConsistentOffsets(t *testing.T) {
	for _, joinAt := range []sim.Duration{0, sim.Millisecond, 2 * sim.Millisecond, 5 * sim.Millisecond} {
		w := newWorld(14)
		w.p.ReplBatchMaxCmds = 64
		master := w.server("m", 6379)
		slave1 := w.server("sl1", 6379)
		slave2 := w.server("sl2", 6379)
		slave1.SlaveOf(master.Stack().Endpoint(), 6379)
		w.run()
		c := w.dial(t, master)
		const bursts, perBurst = 10, 20
		for b := 0; b < bursts; b++ {
			at := w.eng.Now().Add(sim.Duration(b) * sim.Millisecond)
			w.eng.At(at, func() {
				var pipe []byte
				for i := 0; i < perBurst; i++ {
					pipe = append(pipe, resp.EncodeCommand("INCR", "ctr")...)
				}
				c.conn.Send(pipe)
			})
		}
		w.eng.At(w.eng.Now().Add(joinAt), func() {
			slave2.SlaveOf(master.Stack().Endpoint(), 6379)
		})
		w.eng.Run(w.eng.Now().Add(500 * sim.Millisecond))
		want, _ := master.Store().Exec(0, [][]byte{[]byte("GET"), []byte("ctr")})
		for i, sl := range []*Server{slave1, slave2} {
			got, _ := sl.Store().Exec(0, [][]byte{[]byte("GET"), []byte("ctr")})
			if string(got) != string(want) {
				t.Fatalf("joinAt=%v: slave%d ctr=%q master=%q (double/lost application)",
					joinAt, i+1, got, want)
			}
		}
		if m, s2 := master.ReplOffset(), slave2.MasterOffset(); m != s2 {
			t.Fatalf("joinAt=%v: offsets diverged: master %d, slave2 %d", joinAt, m, s2)
		}
	}
}

// TestPSyncStreamContinuity joins a raw PSYNC client around a pipelined
// write burst and checks stream byte accounting: the snapshot offset in the
// FULLRESYNC reply plus every stream byte subsequently delivered must equal
// the master's final offset — no byte delivered twice, none lost — across a
// sweep of join instants at a large batch size.
func TestPSyncStreamContinuity(t *testing.T) {
	hit := false
	for us := 0; us <= 60; us += 2 {
		w := newWorld(15)
		w.p.ReplBatchMaxCmds = 1000 // only quiesce flushes
		master := w.server("m", 6379)
		writer := w.dial(t, master)

		// Raw client recording every message verbatim.
		m := w.net.NewMachine("raw"+nextID(), false)
		proc := sim.NewProc(w.eng, sim.NewCore(w.eng, m.Name+"-core", 1.0), w.p.TCPWakeup)
		stack := tcpsim.New(w.net, m.Host, proc)
		var raw transport.Conn
		var msgs [][]byte
		stack.Dial(master.Stack().Endpoint(), 6379, func(c transport.Conn, err error) {
			if err != nil {
				t.Fatalf("raw dial: %v", err)
			}
			raw = c
			c.SetHandler(func(data []byte) { msgs = append(msgs, append([]byte(nil), data...)) })
		})
		w.run()

		var pipe []byte
		for i := 0; i < 50; i++ {
			pipe = append(pipe, resp.EncodeCommand("INCR", "ctr")...)
		}
		base := w.eng.Now()
		w.eng.At(base, func() { writer.conn.Send(pipe) })
		w.eng.At(base.Add(sim.Duration(us)*sim.Microsecond), func() {
			raw.Send(resp.EncodeCommand("PSYNC", "?", "-1"))
		})
		// A second burst after the handshake: the stream must deliver exactly
		// these bytes to the new slave, nothing more.
		w.eng.At(base.Add(2*sim.Millisecond), func() { writer.conn.Send(pipe) })
		w.eng.Run(base.Add(200 * sim.Millisecond))

		if len(msgs) < 2 {
			t.Fatalf("us=%d: handshake incomplete (%d messages)", us, len(msgs))
		}
		var head resp.Reader
		head.Feed(msgs[0])
		v, ok, err := head.ReadValue()
		if err != nil || !ok || v.Type != resp.TypeSimple {
			t.Fatalf("us=%d: bad PSYNC reply %q", us, msgs[0])
		}
		fields := strings.Fields(string(v.Str))
		if len(fields) != 3 || fields[0] != "FULLRESYNC" {
			t.Fatalf("us=%d: reply %q", us, v.Str)
		}
		snap, _ := strconv.ParseInt(fields[2], 10, 64)
		if snap < master.ReplOffset() {
			hit = true // joined before the final write: live stream exercised
		}
		streamBytes := int64(0)
		for _, msg := range msgs[2:] { // msgs[1] is the RDB dump
			streamBytes += int64(len(msg))
		}
		if got, want := snap+streamBytes, master.ReplOffset(); got != want {
			t.Fatalf("us=%d: snapshot %d + stream %d = %d, master offset %d (bytes double-delivered or lost)",
				us, snap, streamBytes, got, want)
		}
	}
	if !hit {
		t.Fatal("sweep never joined before the final write; test lost its bite")
	}
}

// TestPSyncFlushesPendingBatch is the white-box pin on the barrier in
// cmdPSync: when a PSYNC is processed in the same event-loop instant as
// writes whose batch is still pending (possible if a future transport or
// scheduler interleaves them), the handler must flush before snapshotting,
// so the joining slave's backlog delta covers the batch and the live stream
// never re-delivers it.
func TestPSyncFlushesPendingBatch(t *testing.T) {
	w := newWorld(16)
	w.p.ReplBatchMaxCmds = 1000
	master := w.server("m", 6379)
	sc := w.dial(t, master)
	var cl *client
	for _, c := range master.clients {
		cl = c
	}
	if cl == nil {
		t.Fatal("no server-side client object")
	}
	var sent int
	w.eng.At(w.eng.Now(), func() {
		// Three writes enter the stream mid-tick; the batch stays pending.
		argv := [][]byte{[]byte("INCR"), []byte("ctr")}
		for i := 0; i < 3; i++ {
			master.store.Exec(0, argv)
			master.propagate(0, argv, 0)
		}
		if master.repl.Pending() == 0 {
			t.Error("no pending batch to test against")
		}
		// The PSYNC handler runs before the scheduled quiesce flush.
		master.processCommand(cl, [][]byte{[]byte("PSYNC"), []byte("?"), []byte("-1")})
		if master.repl.Pending() != 0 {
			t.Error("cmdPSync left the batch pending: snapshot offsets exclude it")
		}
		sent = len(master.slaves)
	})
	w.run()
	if sent != 1 {
		t.Fatalf("psync registered %d slave handles", sent)
	}
	// The handle's ack offset must cover the flushed batch.
	if off := master.SlaveAckOffsets()[0]; off != master.ReplOffset() {
		t.Fatalf("snapshot offset %d, stream end %d", off, master.ReplOffset())
	}
	_ = sc
}

// closedLoop opens n connections to srv, each sending next(i, k) — its k-th
// command — as soon as the reply to the previous one arrives, until stop.
func closedLoop(t *testing.T, w *world, srv *Server, n int, stop *bool, next func(i, k int) []byte) {
	t.Helper()
	conns := make([]*scriptClient, n)
	for i := range conns {
		conns[i] = w.dial(t, srv)
	}
	for i, sc := range conns {
		i, sc, k := i, sc, 0
		sc.conn.SetHandler(func(data []byte) {
			sc.reader.Feed(data)
			for {
				if _, ok, err := sc.reader.ReadValue(); err != nil || !ok {
					return
				}
				if k++; !*stop {
					sc.conn.Send(next(i, k))
				}
			}
		})
		w.eng.After(0, func() { sc.conn.Send(next(i, 0)) })
	}
}

// TestQuiesceFlushCoalescesSaturatedWrites: with a budget of 64 and no
// delay timer, a partial batch waits for the tasks already queued on the
// master's proc when its first write was appended — the rest of the
// event-loop iteration — so a saturated master carries several clients'
// writes per flush, and the slave still converges. It used to flush at the
// end of every task, one write per batch.
func TestQuiesceFlushCoalescesSaturatedWrites(t *testing.T) {
	w := newWorld(15)
	w.p.ReplBatchMaxCmds = 64
	master := w.server("m", 6379)
	slave := w.server("sl", 6379)
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	stop := false
	closedLoop(t, w, master, 16, &stop, func(i, k int) []byte {
		return resp.EncodeCommand("SET", fmt.Sprintf("k%d", i), strconv.Itoa(k))
	})
	start := w.eng.Now()
	w.eng.Run(start.Add(20 * sim.Millisecond))
	stop = true
	w.run()
	writes, batches := master.WritesPropagated, master.ReplStream().BatchesFlushed()
	if util := master.Proc().Core.Utilization(w.eng.Now()); writes < 1000 || batches == 0 {
		t.Fatalf("%d writes in %d batches (master util %.2f)", writes, batches, util)
	}
	if perBatch := float64(writes) / float64(batches); perBatch < 2 {
		t.Fatalf("a saturated master flushed %.2f writes per batch (%d writes, %d batches), want several", perBatch, writes, batches)
	}
	if master.ReplOffset() != slave.MasterOffset() {
		t.Fatalf("offsets diverged: master %d, slave %d", master.ReplOffset(), slave.MasterOffset())
	}
}

// TestQuiesceFlushWaitsOneIterationOnly: a lone write among saturating GETs
// flushes once the tasks queued on the master's proc when it was appended
// have run — not one task later, and not when the GETs let up.
func TestQuiesceFlushWaitsOneIterationOnly(t *testing.T) {
	w := newWorld(16)
	w.p.ReplBatchMaxCmds = 64
	master := w.server("m", 6379)
	proc := master.Proc()
	stop := false
	closedLoop(t, w, master, 16, &stop, func(int, int) []byte { return resp.EncodeCommand("GET", "k") })
	w.eng.Run(w.eng.Now().Add(5 * sim.Millisecond))

	// WriteGate runs at the write's admission, in the task that appends it.
	var appended, queued, flushedAt uint64
	master.WriteGate = func() string {
		appended, queued = proc.Handled, uint64(proc.QueueLen())
		return ""
	}
	master.OnPropagate = func(b replstream.Batch) { flushedAt = proc.Handled }
	sc := w.dial(t, master)
	w.eng.After(0, func() { sc.conn.Send(resp.EncodeCommand("SET", "k", "v")) })
	w.eng.Run(w.eng.Now().Add(5 * sim.Millisecond))
	stop = true
	w.run()
	if appended == 0 || flushedAt == 0 {
		t.Fatalf("the write was appended at task %d and flushed at task %d", appended, flushedAt)
	}
	if queued == 0 {
		t.Fatal("the master was not saturated: nothing was queued behind the write")
	}
	if flushedAt != appended+queued {
		t.Fatalf("appended after task %d with %d queued; flushed after task %d, want %d", appended, queued, flushedAt, appended+queued)
	}
}
