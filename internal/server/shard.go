package server

// The sharded dispatch plane (HostShards > 1): the server's original proc
// becomes a dispatch stage that parses RESP and routes each command by key
// hash to one of N shard procs, each pinned to its own core and owning a
// disjoint slice of every numbered database. Completed commands merge back
// on the dispatch proc, which propagates writes into the replication stream
// in a single deterministic serialized order — so the backlog, offsets,
// WAIT, PSYNC, and the Nic-KV offload path are byte-for-byte the same
// pipeline the single-threaded server feeds.
//
// Ordering rules:
//
//   - Single-shard key commands route to their shard's proc and execute in
//     arrival order per shard (same key ⇒ same shard ⇒ client order kept).
//   - Replies re-sequence per client: a command's reply is held until every
//     earlier command from that client has replied, so pipelined clients
//     see RESP replies in request order even when shards finish out of
//     order.
//   - Cross-shard commands (KEYS, DBSIZE, FLUSHALL/FLUSHDB, SCAN,
//     RANDOMKEY, multi-shard MSET/DEL/MGET, ...) and ordering-sensitive
//     server commands (PSYNC, SLAVEOF) are barriers: they wait until
//     every routed command has executed AND merged (inflight == 0), then
//     run inline on the dispatch proc. While a barrier waits, later
//     arrivals from every client queue behind it, preserving the global
//     arrival order around the fence.
//   - WAIT is fence-free: each write's merge records its replication
//     offset on the issuing client (the consistency tracker's per-owner
//     write offset), so WAIT only needs its own client's preceding
//     commands merged. It runs at its reply turn in the client's sequence
//     (parked in client.gated if earlier commands are still in flight) and
//     never quiesces the other clients' traffic.
//   - Quorum writes (WriteConsistency != async) are likewise
//     sequence-ordered but fence-free: the write executes and merges
//     normally, but its reply parks on the consistency tracker holding its
//     re-sequencer turn until W replicas acknowledge the write's offset.
//   - Connection-state commands (SELECT, REPLCONF, PING, ECHO, INFO) run
//     inline on the dispatch proc without fencing; their replies still
//     re-sequence.
//
// The routing plane (RouteListeners > 1, requires HostShards > 1) splits
// the front half of the dispatch stage — transport receive, RESP parse,
// classification, shard handoff, inline execution, and reply emission —
// across N routing procs, each on its own core, with client connections
// pinned round-robin at accept. The dispatch proc is demoted to a thin
// merge/order stage: it keeps ONLY the serialized replication order (merge
// + propagate), write gating and barrier admission, and the replication
// channels themselves (PSYNC links hand themselves back via disownClient).
// Admission is multi-producer — routing procs call route() from their own
// events — but order stays deterministic because every event interleaves
// through the one engine queue, and the merge stage remains the single
// serialization point. Barriers from a routing proc never run on the
// routing event: they defer to the dispatch proc (holdq + drainHeld), so a
// quiesced-pipeline command always executes where the pipeline is visible.
//
// All of this is virtual-time concurrency inside one goroutine: the shard
// and routing procs interleave deterministically through the engine's event
// queue, so two identical runs merge (and therefore replicate) in identical
// order.

import (
	"strconv"

	"skv/internal/metrics"
	"skv/internal/sim"
	"skv/internal/store"
	"skv/internal/transport"
)

// command admission classes.
const (
	classInline = iota
	classRouted
	classBarrier
	// classWait: WAIT is sequence-ordered but fence-free. Each write's
	// merge already recorded its replication offset on the issuing client
	// (the consistency tracker), so WAIT only needs to run after the
	// client's preceding commands have merged — not after the whole
	// pipeline drains. It executes on the dispatch proc at its reply turn,
	// parked in client.gated until then.
	classWait
)

// heldCmd is one command queued behind a pending barrier.
type heldCmd struct {
	c    *client
	cmd  *store.Command
	argv [][]byte
}

// shardEngine is the per-server sharding state: shard procs, per-shard
// instrument registries, the barrier hold queue, and the inline reply
// capture used for re-sequencing.
type shardEngine struct {
	s     *Server
	procs []*sim.Proc
	regs  []*metrics.Registry

	// Routing plane (RouteListeners > 1): per-listener procs, registries,
	// and instruments. Empty slices = dispatch-owned pipeline (legacy).
	routeProcs []*sim.Proc
	routeRegs  []*metrics.Registry
	routeCmds  []*metrics.Counter
	routeConns []*metrics.Counter
	nextRoute  int

	// Per-shard instruments (resolved once; the hot path never rebuilds
	// names).
	shardCmds []*metrics.Counter
	shardExec []*metrics.LatencyHist
	shardKeys []*metrics.Gauge

	// Dispatch-plane instruments.
	routed  *metrics.Counter
	inlined *metrics.Counter
	fenced  *metrics.Counter
	waits   *metrics.Counter

	// inflight counts commands routed to a shard whose merge has not yet
	// run. Barriers wait for zero.
	inflight int
	holding  bool
	holdq    []heldCmd

	// Inline reply capture: while an inline command executes out of reply
	// order, s.reply diverts its bytes here instead of the connection.
	capturing bool
	capClient *client
	capBuf    []byte

	// Barrier park context: while a barrier command executes, execute()'s
	// write-gating path can park its reply on the consistency tracker
	// instead of emitting it. barrierParked tells runBarrier to leave the
	// re-sequencer turn open; the parked fire completes it.
	barrierC      *client
	barrierSeq    uint64
	barrierParked bool
}

func newShardEngine(s *Server, name string, shards, listeners int) *shardEngine {
	e := &shardEngine{s: s}
	for i := 0; i < shards; i++ {
		node := name + "/shard" + strconv.Itoa(i)
		core := sim.NewCore(s.eng, node+"-core", s.params.HostCoreSpeed)
		e.procs = append(e.procs, sim.NewProc(s.eng, core, s.proc.WakeupCost))
		reg := metrics.NewRegistry(node, s.eng.Now)
		e.regs = append(e.regs, reg)
		e.shardCmds = append(e.shardCmds, reg.Counter("shard.cmds"))
		e.shardExec = append(e.shardExec, reg.Histogram("shard.exec"))
		e.shardKeys = append(e.shardKeys, reg.Gauge("shard.keys"))
	}
	// The routing plane only exists with listeners > 1: a single listener
	// would be the dispatch proc wearing a different name, and keeping the
	// plane strictly off preserves the legacy pipeline bit-for-bit.
	if listeners > 1 {
		for i := 0; i < listeners; i++ {
			node := name + "/route" + strconv.Itoa(i)
			core := sim.NewCore(s.eng, node+"-core", s.params.HostCoreSpeed)
			e.routeProcs = append(e.routeProcs, sim.NewProc(s.eng, core, s.proc.WakeupCost))
			reg := metrics.NewRegistry(node, s.eng.Now)
			e.routeRegs = append(e.routeRegs, reg)
			e.routeCmds = append(e.routeCmds, reg.Counter("route.cmds"))
			e.routeConns = append(e.routeConns, reg.Counter("route.conns"))
		}
		// The demoted dispatch proc owns no connections: nothing arrives on
		// an epoll fd or completion channel it could block on — only merge
		// posts from the shard procs. A dedicated merge stage busy-polls its
		// queue (the DPDK/SPDK reactor discipline), so it stops paying the
		// completion-channel wake on every idle→busy transition that the
		// connection-owning PR-5 dispatch proc had to pay. The routing procs
		// keep the blocking wakeup — they DO own connections.
		s.proc.WakeupCost = 0
	}
	e.routed = s.metrics.Counter("server.shard.routed")
	e.inlined = s.metrics.Counter("server.shard.inline")
	e.fenced = s.metrics.Counter("server.shard.barriers")
	e.waits = s.metrics.Counter("server.shard.waits")
	return e
}

// routing reports whether the routing plane is on (RouteListeners > 1).
func (e *shardEngine) routing() bool { return len(e.routeProcs) > 0 }

// adoptClient pins a freshly accepted connection to a routing proc,
// round-robin: the proc delivers the connection's reads, and its core is
// charged for the receive path, parse, routing, inline execution, and
// reply emission. No-op with the routing plane off.
func (e *shardEngine) adoptClient(c *client) {
	if !e.routing() {
		return
	}
	i := e.nextRoute
	e.nextRoute = (e.nextRoute + 1) % len(e.routeProcs)
	c.owner = e.routeProcs[i]
	c.route = i + 1
	e.routeConns[i].Inc()
	if pa, ok := c.conn.(transport.ProcAssignable); ok {
		pa.AssignProc(c.owner)
	}
}

// route is the sharded continuation of dispatchCommand: parse cost is
// already charged (on the routing core when the routing plane owns the
// connection); decide where the command runs. Multi-producer: routing
// procs call this from their own events, the dispatch proc from its own —
// arrival order across producers is the engine's deterministic event order.
func (e *shardEngine) route(c *client, cmd *store.Command, argv [][]byte) {
	if c.route > 0 {
		e.routeCmds[c.route-1].Inc()
	}
	if e.holding {
		e.holdq = append(e.holdq, heldCmd{c: c, cmd: cmd, argv: argv})
		return
	}
	e.admitFrom(c, cmd, argv, false)
}

// admitFrom classifies and launches one command. onDispatch is true when
// the caller is the dispatch proc's own event (the barrier drain): with
// the routing plane on, a barrier is only ever EXECUTED from there —
// admitted from a routing proc it always defers through the hold queue,
// even at inflight == 0, so quiesced-pipeline commands run on the stage
// that owns the serialized order (and never re-defer themselves forever).
func (e *shardEngine) admitFrom(c *client, cmd *store.Command, argv [][]byte, onDispatch bool) {
	s := e.s
	// Write gating stays on the dispatch plane, before routing, exactly
	// where the single-threaded server checks it.
	if cmd != nil && cmd.Write && !cmd.Server {
		if s.role == RoleSlave {
			e.sequencedReply(c, readonlyError())
			return
		}
		if s.WriteGate != nil {
			if msg := s.WriteGate(); msg != "" {
				s.ErrRepliesSent++
				e.sequencedReply(c, gateError(msg))
				return
			}
		}
	}
	class, si := e.classify(cmd, argv)
	switch class {
	case classRouted:
		e.runShard(c, cmd, argv, si)
	case classWait:
		e.runWait(c, cmd, argv)
	case classBarrier:
		if e.inflight == 0 && (!e.routing() || onDispatch) {
			e.runBarrier(c, cmd, argv)
			return
		}
		e.holding = true
		e.holdq = append(e.holdq, heldCmd{c: c, cmd: cmd, argv: argv})
		if e.routing() && e.inflight == 0 {
			// Nothing will merge to trigger the drain: hand off now.
			e.s.proc.Post(0, e.drainHeld)
		}
	default:
		e.runInline(c, cmd, argv)
	}
}

// classify decides a command's admission class and, for routed commands,
// its target shard.
func (e *shardEngine) classify(cmd *store.Command, argv [][]byte) (int, int) {
	if cmd == nil {
		return classInline, 0 // unknown command: error reply, no keyspace
	}
	if cmd.Server {
		switch cmd.Name {
		case "psync", "slaveof", "replicaof":
			// Ordering-sensitive: PSYNC snapshots the keyspace and stream
			// offset, SLAVEOF flips the role. Both must observe a quiesced
			// pipeline.
			return classBarrier, 0
		case "wait":
			// Fence-free: the target offset is the caller's own last-write
			// offset, recorded at each write's merge; no global quiesce
			// needed.
			return classWait, 0
		case "cluster":
			if len(argv) >= 2 {
				switch string(argv[1]) {
				case "setslot", "SETSLOT", "getkeysinslot", "GETKEYSINSLOT",
					"countkeysinslot", "COUNTKEYSINSLOT":
					// Migration control plane: SETSLOT NODE flips slot
					// ownership and GETKEYSINSLOT decides the mover's
					// termination — both must observe a quiesced pipeline so
					// no in-flight command straddles the state change.
					return classBarrier, 0
				}
			}
			return classInline, 0 // keyslot, slots, info
		}
		return classInline, 0 // select, replconf, asking, skv.consistency
	}
	if cmd.FirstKey <= 0 {
		switch cmd.Name {
		case "ping", "echo", "info":
			return classInline, 0
		}
		// Whole-keyspace commands: KEYS, DBSIZE, SCAN, RANDOMKEY,
		// FLUSHDB, FLUSHALL.
		return classBarrier, 0
	}
	si, multi := cmd.SingleShard(argv, len(e.procs))
	if si == -1 {
		return classInline, 0 // too few args: store replies with arity error
	}
	if multi {
		return classBarrier, 0 // keys span shards: fence and run fanned-in
	}
	return classRouted, si
}

// runShard posts the command to its shard proc and arranges the merge. The
// execution-cost jitter draw happens here, at route time, so the RNG
// sequence follows command arrival order deterministically.
func (e *shardEngine) runShard(c *client, cmd *store.Command, argv [][]byte, si int) {
	s := e.s
	p := s.params
	// The route decision + shard handoff happen on the core that owns the
	// connection: with the routing plane on, the dispatch core sees only the
	// merge.
	s.coreFor(c).Charge(p.ShardRouteCPU)
	e.routed.Inc()
	e.shardCmds[si].Inc()
	seq := c.seqNext
	c.seqNext++
	dbi := c.db
	// The consistency decision is made at admission, in arrival order, so a
	// pipelined SKV.CONSISTENCY override applies to exactly the commands
	// behind it — the merge stage may observe a later override otherwise.
	need, wire := s.gateNeed(c)
	cost := s.execCost(cmd, argv)
	e.inflight++
	e.procs[si].Post(cost, func() {
		var reply []byte
		var dirty bool
		if s.alive {
			// Live migration: decide ASK/TRYAGAIN here, on the shard proc at
			// execution time — an admission-time presence check would race
			// writes already queued ahead of this command in the shard FIFO.
			if redirect := s.migrationCheck(cmd, dbi, argv); redirect != nil {
				reply = redirect
			} else {
				reply, dirty = s.store.Dispatch(cmd, dbi, argv)
			}
		}
		e.shardExec[si].Observe(cost)
		s.proc.Post(p.ShardMergeCPU, func() {
			// Merge stage, on the dispatch proc: replication order is
			// merge-arrival order — a single serialized stream. The write's
			// end offset lands on the issuing client (max-assign — a
			// client's writes to different shards can merge out of order) so
			// a later WAIT blocks on exactly this client's writes.
			if s.alive && dirty && s.role == RoleMaster {
				off := s.propagate(dbi, argv)
				s.acks.NoteWrite(c.id, off)
				s.pushInvalidations(cmd, argv)
				if need > 0 {
					// Quorum write: sequence-ordered but fence-free, like
					// classWait — the reply holds its re-sequencer turn until
					// W replicas ack, while the pipeline keeps flowing
					// (mergeDone runs now, so barriers never wait on acks).
					s.acks.ParkWrite(c.id, off, need, func() { e.complete(c, seq, reply) })
					if s.OnWriteGate != nil {
						s.OnWriteGate(off, wire)
					}
					e.mergeDone()
					return
				}
			}
			e.complete(c, seq, reply)
			e.mergeDone()
		})
	})
}

// runInline executes a command synchronously on the dispatch proc. If
// earlier commands from the client are still in flight, the reply is
// captured and re-sequenced instead of sent.
func (e *shardEngine) runInline(c *client, cmd *store.Command, argv [][]byte) {
	e.inlined.Inc()
	seq := c.seqNext
	c.seqNext++
	if seq == c.seqEmit {
		c.seqEmit++
		e.s.execute(c, cmd, argv)
		return
	}
	e.capturing, e.capClient, e.capBuf = true, c, nil
	e.s.execute(c, cmd, argv)
	buf := e.capBuf
	e.capturing, e.capClient, e.capBuf = false, nil, nil
	e.complete(c, seq, buf)
}

// runWait admits a WAIT without fencing. It must still observe the
// caller's preceding writes (their merges record offsets), so it runs at
// its sequence turn: immediately when the client has nothing in flight,
// otherwise parked in client.gated until complete() drains up to it. Other
// clients' traffic keeps flowing through the shards either way.
func (e *shardEngine) runWait(c *client, cmd *store.Command, argv [][]byte) {
	e.waits.Inc()
	seq := c.seqNext
	c.seqNext++
	if seq == c.seqEmit {
		c.seqEmit++
		e.s.execute(c, cmd, argv)
		return
	}
	if c.gated == nil {
		c.gated = make(map[uint64]gatedCmd)
	}
	c.gated[seq] = gatedCmd{cmd: cmd, argv: argv}
}

// runBarrier executes a cross-shard or ordering-sensitive command inline
// with the pipeline quiesced (inflight == 0, so every client's reply
// sequence is already drained and replies go out directly).
func (e *shardEngine) runBarrier(c *client, cmd *store.Command, argv [][]byte) {
	s := e.s
	e.fenced.Inc()
	// Fencing costs one cross-shard synchronization per shard core.
	s.proc.Core.Charge(s.params.ShardFenceCPU * sim.Duration(len(e.procs)))
	seq := c.seqNext
	c.seqNext++
	e.barrierC, e.barrierSeq, e.barrierParked = c, seq, false
	if seq == c.seqEmit {
		// The quiesced pipeline has drained every earlier reply (the legacy
		// invariant — always true in async mode): execute directly.
		c.seqEmit = seq + 1
		s.execute(c, cmd, argv)
		if e.barrierParked {
			// The write reply parked on the consistency tracker: reclaim the
			// emit turn so later replies queue behind it until it fires.
			c.seqEmit = seq
		}
	} else {
		// An earlier parked write still owns this client's emit turn:
		// execute now (the barrier fence already quiesced the shards) but
		// re-sequence the reply behind the parked one.
		e.capturing, e.capClient, e.capBuf = true, c, nil
		s.execute(c, cmd, argv)
		buf := e.capBuf
		e.capturing, e.capClient, e.capBuf = false, nil, nil
		if !e.barrierParked {
			e.complete(c, seq, buf)
		}
	}
	e.barrierC, e.barrierParked = nil, false
}

// sequencedReply emits a dispatch-plane reply (error paths) through the
// per-client re-sequencer.
func (e *shardEngine) sequencedReply(c *client, data []byte) {
	seq := c.seqNext
	c.seqNext++
	if seq == c.seqEmit {
		c.seqEmit++
		e.s.reply(c, data)
		return
	}
	e.complete(c, seq, data)
}

// complete records a command's reply (nil = none) and emits every
// consecutive ready reply in client request order. Sequence-ordered parked
// commands (WAIT) execute when the drain reaches their turn.
func (e *shardEngine) complete(c *client, seq uint64, reply []byte) {
	if c.pending == nil {
		c.pending = make(map[uint64][]byte)
	}
	c.pending[seq] = reply
	s := e.s
	for {
		if g, ok := c.gated[c.seqEmit]; ok {
			delete(c.gated, c.seqEmit)
			c.seqEmit++
			if s.alive && !c.closed {
				s.execute(c, g.cmd, g.argv)
			}
			continue
		}
		data, ok := c.pending[c.seqEmit]
		if !ok {
			return
		}
		delete(c.pending, c.seqEmit)
		c.seqEmit++
		if len(data) > 0 && s.alive && !c.closed {
			s.coreFor(c).Charge(s.params.ReplyBuildCPU)
			c.conn.Send(data)
		}
	}
}

// mergeDone retires one routed command; when the pipeline drains with a
// barrier waiting, the barrier runs and everything held behind it re-enters
// admission in arrival order.
func (e *shardEngine) mergeDone() {
	e.inflight--
	if e.inflight == 0 && e.holding {
		e.drainHeld()
	}
}

// drainHeld runs on the dispatch proc with the pipeline quiesced: the held
// barrier executes here, and everything queued behind it re-enters
// admission in arrival order. Re-admitted routed commands raise inflight
// again; a second barrier in the queue re-arms holding and the loop
// re-queues the tail for the next drain.
func (e *shardEngine) drainHeld() {
	if e.inflight != 0 || !e.holding {
		return
	}
	if !e.s.alive {
		e.holding = false
		e.holdq = nil
		return
	}
	q := e.holdq
	e.holdq = nil
	e.holding = false
	for len(q) > 0 {
		h := q[0]
		q = q[1:]
		if e.holding {
			e.holdq = append(e.holdq, h)
			continue
		}
		if h.c.closed {
			// The client disconnected while its command sat behind the
			// barrier: admitting it would execute for (and build replies,
			// park WAITs, and charge cores on behalf of) a dead connection.
			continue
		}
		e.admitFrom(h.c, h.cmd, h.argv, true)
	}
}

// cron posts the per-shard time event to every shard proc: each shard
// actively expires and rehashes only the keys it owns, on its own core.
func (e *shardEngine) cron() {
	s := e.s
	for i, proc := range e.procs {
		si := i
		proc.Post(s.params.CronCPU, func() {
			if !s.alive {
				return
			}
			s.store.ActiveExpireCycleShard(si, 20)
			s.store.RehashStepShard(si, 100)
			keys := 0
			for dbi := 0; dbi < s.store.NumDBs(); dbi++ {
				keys += s.store.ShardSize(dbi, si)
			}
			e.shardKeys[si].Set(int64(keys))
		})
	}
}

// Registries exposes the per-shard instrument registries (cluster
// snapshots).
func (e *shardEngine) Registries() []*metrics.Registry { return e.regs }

// Procs exposes the shard procs (utilization measurements).
func (e *shardEngine) Procs() []*sim.Proc { return e.procs }
