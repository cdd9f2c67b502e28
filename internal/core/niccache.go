package core

import (
	"fmt"

	"skv/internal/replstream"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/store"
	"skv/internal/tracking"
	"skv/internal/transport"
)

// This file implements the design §IV-A *rejects* — serving reads from
// data stored on the SmartNIC, as KV-Direct and Xenic do on their (on-path
// / FPGA) hardware — so the decision can be measured rather than asserted:
// "If SKV follows this idea, the latency of accessing data will increase
// significantly due to the weaker processors and relatively larger RDMA
// latency of the off-path SmartNIC."
//
// When Config.ServeReadsFromNIC is set, Nic-KV maintains a shadow replica
// of the keyspace (applied from the replication stream it already relays)
// and accepts client connections on the SmartNIC endpoint, serving read
// commands from the ARM cores. Write commands are refused with a -MOVED
// error pointing at the master. The ablate-niccache experiment compares
// this against the paper's host-served reads.
//
// The replica mirrors the host's shard layout: min(HostShards, NICCores)
// shards each own a key-hash slice of the replica (the same
// store.ShardOfKey placement the host uses). The main ARM core is the
// dispatch stage — it decodes the stream and parses client reads, then
// routes each single-key operation to its shard's proc; replies and apply
// retirements merge back on the main core, with per-client re-sequencing
// exactly like the host dispatch plane and at its prices (ShardRouteCPU,
// ShardMergeCPU, ShardFenceCPU): the ARM core's speed factor is what makes
// them dearer here. With several shards each runs on its own ARM core; a
// single shard (the default) runs on the main core itself, so the unsharded
// replica occupies one modelled core and pays for no handoff (see viaShard).

// nicClient is one client connection served by the SmartNIC.
type nicClient struct {
	conn   transport.Conn
	reader resp.Reader
	db     int

	// Reply re-sequencing, same scheme as the host dispatch plane: seqNext
	// numbers commands in arrival order, seqEmit is the next reply the
	// connection may carry, pending holds completed replies that cannot be
	// emitted yet.
	seqNext uint64
	seqEmit uint64
	pending map[uint64][]byte

	// id numbers the connection for its in-band subscriber name. track is
	// its CLIENT TRACKING state: interest lands in the NIC's own table and
	// invalidations come back in-band as RESP3 push frames on this data
	// connection.
	id    uint64
	track tracking.Conn
}

// nicApplyOp is one decoded replicated command queued for the apply
// pipeline. shard < 0 marks a fence (cross-shard or keyless command)
// that must observe a quiesced pipeline.
type nicApplyOp struct {
	db    int
	argv  [][]byte
	cmd   *store.Command
	shard int
}

// initReadServing sets up the shadow store, the shard procs, and the client
// listener. Called from NewNicKV when the config asks for it; name is the
// machine name (core naming).
func (n *NicKV) initReadServing(name string) {
	rshards := n.params.HostShards
	if rshards < 1 {
		rshards = 1
	}
	if rshards > n.params.NICCores {
		rshards = n.params.NICCores
	}
	n.replica = store.New(store.Options{Shards: rshards, Seed: 0x51CA, Clock: func() int64 {
		return int64(n.eng.Now() / sim.Time(sim.Millisecond))
	}})
	n.metrics.Gauge("nickv.replica.shards").Set(int64(rshards))
	n.mReplicaGaps = n.metrics.Counter("nickv.replica.gaps")
	n.mReplicaRouted = n.metrics.Counter("nickv.replica.routed")
	n.mReplicaFenced = n.metrics.Counter("nickv.replica.fenced")
	if rshards == 1 {
		// The main ARM core is the shard: no extra modelled core appears.
		n.rprocs = []*sim.Proc{n.proc}
	} else {
		for i := 0; i < rshards; i++ {
			c := sim.NewCore(n.eng, fmt.Sprintf("%s-nic-rshard%d", name, i), n.params.NICCoreSpeed)
			n.rprocs = append(n.rprocs, sim.NewProc(n.eng, c, n.params.CompChannelWake))
		}
	}
	n.replApplier = replstream.NewApplier(n.applyDecoded)
	n.Stack.Listen(ClientPort, func(conn transport.Conn) {
		n.nicClients++
		c := &nicClient{conn: conn, id: n.nicClients}
		conn.SetHandler(func(data []byte) { n.onClientData(c, data) })
		conn.SetCloseHandler(func() { c.track.Off(n.untrack) })
	})
}

// applyToReplica mirrors replicated command bytes (possibly a whole batch)
// into the shadow store, consuming ARM-core cycles like any other apply.
// off is the stream offset the bytes start at: replayed bytes (a master
// resending from its backlog after a reconnect) are trimmed rather than
// double-applied, and a jump past the expected offset is counted as a gap
// (nickv.replica.gaps) — the replica's divergence diagnostic. A chunk the
// applier cannot decode is counted (replstream.ProtocolErrorsMetric) and
// leaves replicaOff where it was, so the next chunk registers as the gap it
// is; every offload request holds whole commands, so the applier restarts
// from a clean buffer at the next one.
func (n *NicKV) applyToReplica(off int64, cmd []byte) {
	if n.replica == nil {
		return
	}
	if n.replicaOff > 0 {
		switch {
		case off > n.replicaOff:
			n.mReplicaGaps.Inc()
		case off < n.replicaOff:
			skip := n.replicaOff - off
			if skip >= int64(len(cmd)) {
				return
			}
			cmd = cmd[skip:]
			off = n.replicaOff
		}
	}
	if n.replApplier.Feed(cmd) != nil {
		n.metrics.Counter(replstream.ProtocolErrorsMetric).Inc()
		n.replApplier.Reset()
		return
	}
	n.replicaOff = off + int64(len(cmd))
}

// applyDecoded is the applier's per-command sink (db is the stream's SELECT
// context): the command queues into the apply pipeline and drains to its
// shard's proc. The applier lends argv for this call only, and the op may
// wait on applyq and then on a shard's proc, so it takes a copy.
func (n *NicKV) applyDecoded(db int, argv [][]byte) {
	argv = resp.CloneCommand(argv)
	cmd := store.LookupCommand(argv[0])
	n.applyq.Push(nicApplyOp{db: db, argv: argv, cmd: cmd, shard: n.replicaShardOf(cmd, argv)})
	n.drainApply()
}

// replicaShardOf maps a command to the replica shard that owns all its
// keys, or -1 when it has none or they span shards (fence).
func (n *NicKV) replicaShardOf(cmd *store.Command, argv [][]byte) int {
	if cmd == nil || cmd.Server {
		return -1
	}
	si, multi := cmd.SingleShard(argv, len(n.rprocs))
	if multi {
		return -1
	}
	return si
}

// drainApply admits queued apply ops in stream order: routed ops run on
// their shard (viaShard); a fence waits for the pipeline to drain
// (applyInflight == 0) and then runs inline. Per-key order is preserved by
// shard-FIFO execution; the fence preserves global order around cross-shard
// commands.
func (n *NicKV) drainApply() {
	for n.applyq.Len() > 0 {
		if n.applyq.Peek().shard < 0 && n.applyInflight > 0 {
			return
		}
		op := n.applyq.Pop()
		if op.shard < 0 {
			n.mReplicaFenced.Inc()
			fence := n.params.ShardFenceCPU * sim.Duration(len(n.rprocs))
			if n.rprocs[0] == n.proc {
				fence = 0 // the main core is the one shard: no other core to quiesce
			}
			n.proc.Core.Charge(fence + n.params.SlaveApplyCPU)
			n.applyReply, _ = n.replica.ExecAppend(n.applyReply[:0], op.db, op.argv)
			continue
		}
		n.mReplicaRouted.Inc()
		n.applyInflight++
		n.viaShard(op.shard, n.params.SlaveApplyCPU, func() {
			n.applyReply, _ = n.replica.DispatchAppend(n.applyReply[:0], op.cmd, op.db, op.argv)
		}, func() {
			n.applyInflight--
			n.drainApply()
		})
	}
}

// viaShard is the one route → execute → merge hop of the replica pipeline,
// called on the main core: route cost here, cost of work on shard si's proc,
// merge cost back here, then done. When the main core is itself the shard
// (one shard) there is no other core to hand to: the hop is a charge and two
// calls, with no handoff cost and no requeue behind later arrivals.
func (n *NicKV) viaShard(si int, cost sim.Duration, work, done func()) {
	p := n.rprocs[si]
	if p == n.proc {
		n.proc.Core.Charge(cost)
		work()
		done()
		return
	}
	n.proc.Core.Charge(n.params.ShardRouteCPU)
	p.Post(cost, func() {
		work()
		n.proc.Post(n.params.ShardMergeCPU, done)
	})
}

// PreloadReplica installs a key directly in the shadow store (the ablation
// warms the NIC replica the same way the master is warmed).
func (n *NicKV) PreloadReplica(key string, value []byte) {
	if n.replica == nil {
		return
	}
	n.replica.Exec(0, [][]byte{[]byte("SET"), []byte(key), value})
}

// ReplicaStore exposes the shadow store (keyspace-equality tests); nil
// unless read serving is enabled.
func (n *NicKV) ReplicaStore() *store.Store { return n.replica }

// onClientData serves client commands on the SmartNIC ARM core.
func (n *NicKV) onClientData(c *nicClient, data []byte) {
	c.reader.Feed(data)
	for {
		argv, okCmd, err := c.reader.ReadCommand()
		if err != nil {
			n.proc.Core.Charge(n.params.ReplyBuildCPU)
			c.conn.Send(resp.AppendError(nil, "ERR Protocol error"))
			c.conn.Close()
			return
		}
		if !okCmd {
			return
		}
		n.serveSharded(c, argv)
	}
}

// selectReply handles SELECT on a NIC client — the shadow replica keeps
// every numbered database, so NIC clients switch dbs exactly like host
// clients do. Returns the RESP reply.
func (n *NicKV) selectReply(c *nicClient, argv [][]byte) []byte {
	db, reply := n.replica.Select(c.db, argv)
	c.db = db
	return reply
}

// serveSharded charges the parse (always on the slow main ARM core) and
// routes the client command through the replica shards: single-key reads
// execute on the proc of the shard owning the key, with the reply merged
// back and re-sequenced per client on the main core; everything else (MOVED
// for writes, SELECT, keyless or cross-shard reads) runs inline on the main
// core but still replies in request order.
func (n *NicKV) serveSharded(c *nicClient, argv [][]byte) {
	size := 0
	for _, a := range argv {
		size += len(a) + 14
	}
	n.proc.Core.Charge(n.params.ParseCost(size))
	cmd := store.LookupCommand(argv[0])
	seq := c.seqNext
	c.seqNext++
	if cmd != nil && cmd.Write {
		n.completeRead(c, seq, resp.AppendError(nil, "MOVED write commands go to the master host"))
		return
	}
	if cmd != nil && cmd.Name == "select" {
		n.completeRead(c, seq, n.selectReply(c, argv))
		return
	}
	if cmd != nil && cmd.Server && cmd.Name == "client" {
		n.completeRead(c, seq, n.nicClientCmd(c, argv))
		return
	}
	// Interest records at admission, on the main core, before the read is
	// routed — so it exists before any later write's fan-out pushes, and a
	// push can only overtake the read's reply (which the client handles by
	// poisoning the in-flight read), never miss it.
	if c.track.Tracks(cmd) {
		n.proc.Core.Charge(n.params.TrackInterestCPU)
		cmd.EachKey(argv, func(key []byte) { n.track.Add(string(key), c.track.Name) })
	}
	if si := n.replicaShardOf(cmd, argv); si >= 0 {
		dbi := c.db
		var reply []byte
		n.viaShard(si, n.execReadCost(argv), func() {
			reply, _ = n.replica.Dispatch(cmd, dbi, argv)
		}, func() {
			n.completeRead(c, seq, reply)
		})
		return
	}
	n.proc.Core.Charge(n.execReadCost(argv))
	reply, _ := n.replica.Exec(c.db, argv)
	n.completeRead(c, seq, reply)
}

// completeRead records a reply and emits every consecutive ready reply in
// the client's request order (reply-build cost charged per emitted reply,
// on the main ARM core).
func (n *NicKV) completeRead(c *nicClient, seq uint64, data []byte) {
	if c.pending == nil {
		c.pending = make(map[uint64][]byte)
	}
	c.pending[seq] = data
	for {
		d, ok := c.pending[c.seqEmit]
		if !ok {
			return
		}
		delete(c.pending, c.seqEmit)
		c.seqEmit++
		if len(d) > 0 {
			n.proc.Core.Charge(n.params.ReplyBuildCPU)
			c.conn.Send(d)
		}
	}
}

// execReadCost is the ARM-core execution cost of one read: base GET cost
// plus a per-byte term on the first argument.
func (n *NicKV) execReadCost(argv [][]byte) sim.Duration {
	var payload int
	if len(argv) > 1 {
		payload = len(argv[1])
	}
	return n.params.CmdExecGetCPU +
		sim.Duration(float64(payload)*n.params.CmdExecPerByte)
}
