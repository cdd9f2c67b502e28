package server

// The command pipeline: dispatch → shard → merge → re-sequence. The server's
// proc is the dispatch stage: it parses RESP, numbers each command on
// arrival, and routes it by key hash to one of N shards, each owning a
// disjoint slice of every numbered database. Completed commands merge back
// on the dispatch proc, which propagates writes into the replication stream
// in a single deterministic serialized order — so the backlog, offsets,
// WAIT, PSYNC, and the Nic-KV offload path see one stream whatever N is.
//
// With HostShards > 1 every shard is a proc pinned to its own core and the
// hop to it costs a route charge, two events and a merge charge. With one
// shard the shard's proc IS the dispatch proc (paper §III, Fig 4: one
// Redis-style event loop), and the hop is what the code observes it to be —
// a charge and two calls on the same core: no route, merge or fence cost, no
// Post, no event, no extra core to model. It is the same pipeline, not a
// second one; everything below holds at every N.
//
// Ordering rules:
//
//   - Every command takes its per-client sequence number on arrival
//     (dispatchCommand), before anything can answer, hold or route it.
//   - Replies re-sequence per client: a command's reply is held until every
//     earlier command from that client has replied, so pipelined clients
//     see RESP replies in request order whichever stage produced them — a
//     shard, the dispatch proc, or the admission plane (write-gate errors,
//     MOVED/ASK/CROSSSLOT redirects, the ASKING ack) answering a command
//     that arrived behind a held barrier.
//   - Single-shard key commands route to their shard and execute in arrival
//     order per shard (same key ⇒ same shard ⇒ client order kept).
//   - Cross-shard commands (KEYS, DBSIZE, FLUSHALL/FLUSHDB, SCAN,
//     RANDOMKEY, multi-shard MSET/DEL/MGET, ...) and ordering-sensitive
//     server commands (PSYNC, SLAVEOF) are barriers: they wait until
//     every routed command has executed AND merged (inflight == 0), then
//     run on the dispatch proc. While a barrier waits, later arrivals from
//     every client queue behind it, preserving the global arrival order
//     around the fence. (With one shard nothing is ever in flight, so a
//     barrier runs on the spot.)
//   - WAIT is fence-free: each write's merge records its replication
//     offset on the issuing client (the consistency tracker's per-owner
//     write offset), so WAIT only needs its own client's preceding
//     commands merged. It runs at its reply turn in the client's sequence
//     (parked in client.pending if earlier commands are still in flight) and
//     never quiesces the other clients' traffic.
//   - Quorum writes (WriteConsistency != async) are likewise
//     sequence-ordered but fence-free: the write executes and merges
//     normally, but its reply parks on the consistency tracker holding its
//     re-sequencer turn until W replicas acknowledge the write's offset;
//     later replies on the connection queue behind it.
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
	"skv/internal/replstream"
	"skv/internal/resp"
	"skv/internal/ring"
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
	// parked in client.pending until then.
	classWait
)

// heldCmd is one command queued behind a pending barrier; it keeps the
// sequence number it took on arrival, and its argv is the pipeline's copy.
type heldCmd struct {
	c    *client
	seq  uint64
	cmd  *store.Command
	argv [][]byte
}

// shardEngine is the pipeline's state: shard procs, per-shard instrument
// registries, the barrier hold queue, and the reply capture used for
// re-sequencing.
type shardEngine struct {
	s *Server
	// procs has one entry per shard. ownCore lists the shard procs that run
	// on a core of their own — all of them, or none when the one shard
	// shares the dispatch proc — and regs their registries.
	procs   []*sim.Proc
	ownCore []*sim.Proc
	regs    []*metrics.Registry

	// Routing plane (RouteListeners > 1): per-listener procs, registries,
	// and instruments. Empty slices = the dispatch proc owns every
	// connection.
	routeProcs []*sim.Proc
	routeRegs  []*metrics.Registry
	routeCmds  []*metrics.Counter
	routeConns []*metrics.Counter
	nextRoute  int

	// Per-shard instruments (resolved once; the hot path never rebuilds
	// names). No-ops for a shard without a registry.
	shardCmds []*metrics.Counter
	shardExec []*metrics.LatencyHist
	shardKeys []*metrics.Gauge

	// Dispatch-plane instruments.
	routed  *metrics.Counter
	inlined *metrics.Counter
	fenced  *metrics.Counter
	waits   *metrics.Counter

	// inflight counts commands posted to a shard core whose merge has not
	// yet run. Barriers wait for zero.
	inflight int
	holding  bool
	holdq    ring.Queue[heldCmd]

	// Reply capture: while a command executes on the dispatch plane ahead of
	// its reply turn, s.reply diverts capClient's bytes here instead of the
	// connection. The buffer is reused: complete holds what it defers.
	capClient *client
	capBuf    []byte
}

func newShardEngine(s *Server, name string, shards, listeners int) *shardEngine {
	e := &shardEngine{s: s}
	for i := 0; i < shards; i++ {
		// One shard runs on the dispatch proc itself: no second core to
		// model, no registry of its own (a nil registry hands out no-op
		// instruments).
		proc := s.proc
		var reg *metrics.Registry
		if shards > 1 {
			node := name + "/shard" + strconv.Itoa(i)
			core := sim.NewCore(s.eng, node+"-core", s.params.HostCoreSpeed)
			proc = sim.NewProc(s.eng, core, s.proc.WakeupCost)
			reg = metrics.NewRegistry(node, s.eng.Now)
			e.ownCore = append(e.ownCore, proc)
			e.regs = append(e.regs, reg)
		}
		e.procs = append(e.procs, proc)
		e.shardCmds = append(e.shardCmds, reg.Counter("shard.cmds"))
		e.shardExec = append(e.shardExec, reg.Histogram("shard.exec"))
		e.shardKeys = append(e.shardKeys, reg.Gauge("shard.keys"))
	}
	// The routing plane only exists in front of shard cores, and only with
	// listeners > 1: a single listener would be the dispatch proc wearing a
	// different name.
	if shards > 1 && listeners > 1 {
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
// reply emission. With the routing plane off the dispatch proc keeps it.
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

// route is the continuation of dispatchCommand: the command is numbered and
// its parse cost charged (on the routing core when the routing plane owns
// the connection); decide where it runs. Multi-producer: routing procs call
// this from their own events, the dispatch proc from its own — arrival order
// across producers is the engine's deterministic event order.
func (e *shardEngine) route(c *client, seq uint64, cmd *store.Command, argv [][]byte) {
	if c.route > 0 {
		e.routeCmds[c.route-1].Inc()
	}
	if e.holding {
		e.holdq.Push(heldCmd{c: c, seq: seq, cmd: cmd, argv: resp.CloneCommand(argv)})
		return
	}
	e.admitFrom(c, seq, cmd, argv, false)
}

// admitFrom classifies and launches one command. onDispatch is true when
// the caller is the dispatch proc's own event (the barrier drain): with
// the routing plane on, a barrier is only ever EXECUTED from there —
// admitted from a routing proc it always defers through the hold queue,
// even at inflight == 0, so quiesced-pipeline commands run on the stage
// that owns the serialized order (and never re-defer themselves forever).
func (e *shardEngine) admitFrom(c *client, seq uint64, cmd *store.Command, argv [][]byte, onDispatch bool) {
	s := e.s
	// Writes are refused on slaves and when the write gate (min-slaves)
	// vetoes them — on the dispatch plane, before routing.
	if cmd != nil && cmd.Write && !cmd.Server {
		if s.role == RoleSlave {
			e.complete(c, seq, resp.AppendError(nil, "READONLY You can't write against a read only replica."))
			return
		}
		if s.WriteGate != nil {
			if msg := s.WriteGate(); msg != "" {
				e.complete(c, seq, resp.AppendError(nil, msg))
				return
			}
		}
	}
	class, si := e.classify(cmd, argv)
	switch class {
	case classRouted:
		e.runShard(c, seq, cmd, argv, si)
	case classWait:
		e.runWait(c, seq, cmd, argv)
	case classBarrier:
		if e.inflight == 0 && (!e.routing() || onDispatch) {
			e.runBarrier(c, seq, cmd, argv)
			return
		}
		e.holding = true
		if !onDispatch {
			argv = resp.CloneCommand(argv) // drainHeld re-admits its own copy
		}
		e.holdq.Push(heldCmd{c: c, seq: seq, cmd: cmd, argv: argv})
		if e.routing() && e.inflight == 0 {
			// Nothing will merge to trigger the drain: hand off now.
			e.s.proc.Post(0, e.drainHeld)
		}
	default:
		e.inlined.Inc()
		e.runHere(c, seq, cmd, argv)
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

// runShard executes a single-shard command on its shard and merges the
// result on the dispatch proc. The execution-cost jitter draw happens here,
// at route time, so the RNG sequence follows command arrival order
// deterministically.
func (e *shardEngine) runShard(c *client, seq uint64, cmd *store.Command, argv [][]byte, si int) {
	s := e.s
	p := s.params
	e.routed.Inc()
	e.shardCmds[si].Inc()
	dbi := c.db
	// The consistency decision is made at admission, in arrival order, so a
	// pipelined SKV.CONSISTENCY override applies to exactly the commands
	// behind it — the merge stage may observe a later override otherwise.
	need, gate := s.gateNeed(c)
	cost := s.execCost(cmd, argv)
	if e.procs[si] == s.proc {
		// The shard shares the dispatch core, so there is nothing to hand
		// off: the hop is the execution charge and two calls, in this
		// event, on the borrowed argv and the connection's reply scratch.
		// The closures and copies below are made only when a core is
		// crossed.
		s.proc.Core.Charge(cost)
		reply, dirty := e.execOnShard(c, si, cost, cmd, dbi, argv)
		e.merge(c, seq, cmd, dbi, argv, reply, dirty, need, gate)
		return
	}
	// The route decision + shard handoff happen on the core that owns the
	// connection: with the routing plane on, the dispatch core sees only the
	// merge.
	s.coreFor(c).Charge(p.ShardRouteCPU)
	e.inflight++
	argv = resp.CloneCommand(argv)
	e.procs[si].Post(cost, func() {
		reply, dirty := e.execOnShard(c, si, cost, cmd, dbi, argv)
		reply = c.hold(reply)
		s.proc.Post(p.ShardMergeCPU, func() {
			e.merge(c, seq, cmd, dbi, argv, reply, dirty, need, gate)
			e.mergeDone()
		})
	})
}

// execOnShard is the execute stage, on the shard's core. The reply lands in
// c's reply scratch.
func (e *shardEngine) execOnShard(c *client, si int, cost sim.Duration, cmd *store.Command, dbi int, argv [][]byte) (reply []byte, dirty bool) {
	s := e.s
	if s.alive {
		// Live migration: decide ASK/TRYAGAIN here, at execution time — an
		// admission-time presence check would race writes already queued
		// ahead of this command in the shard FIFO.
		if redirect := s.migrationCheck(cmd, dbi, argv); redirect != nil {
			reply = redirect
		} else {
			reply, dirty = s.store.DispatchAppend(c.scratch(), cmd, dbi, argv)
			c.keep(reply)
		}
	}
	e.shardExec[si].Observe(cost)
	return reply, dirty
}

// merge is the merge stage, on the dispatch proc: replication order is
// merge-arrival order — a single serialized stream.
func (e *shardEngine) merge(c *client, seq uint64, cmd *store.Command, dbi int, argv [][]byte, reply []byte, dirty bool, need int, gate replstream.Gate) {
	s := e.s
	if s.alive && dirty && s.role == RoleMaster && e.commit(c, seq, cmd, dbi, argv, reply, need, gate) {
		return
	}
	e.complete(c, seq, reply)
}

// commit enters an executed write into the replication stream. The write's
// end offset lands on the issuing client (max-assign — a client's writes to
// different shards can merge out of order) so a later WAIT blocks on
// exactly this client's writes. With need > 0 (quorum/all) the reply parks
// on the consistency tracker, holding its re-sequencer turn until the
// replicas ack while the pipeline keeps flowing — barriers never wait on
// acks — and its gate enters the stream with its bytes, so an offload layer
// (Nic-KV) can release it off-host; commit then reports true and the parked
// fire completes the command: the reply parks as a value record holding
// the connection's copy of the bytes, and Server.releaseWrite emits it.
func (e *shardEngine) commit(c *client, seq uint64, cmd *store.Command, dbi int, argv [][]byte, reply []byte, need int, gate replstream.Gate) bool {
	s := e.s
	off := s.propagate(dbi, argv, gate)
	s.acks.NoteWrite(c.id, off)
	s.track.Invalidate(cmd, argv)
	if need == 0 {
		return false
	}
	s.acks.ParkReply(c.id, seq, off, need, c.hold(reply))
	return true
}

// releaseWrite is the consistency tracker's bound Release: a parked write
// reply whose replicas have acknowledged it takes its turn. A disconnected
// owner's replies were dropped with it.
func (s *Server) releaseWrite(owner, seq uint64, reply []byte) {
	if c := s.clients[owner]; c != nil {
		s.shard.complete(c, seq, reply)
	}
}

// runHere executes a command on the current dispatch-plane event: an inline
// command, a WAIT at its turn, or a barrier with the pipeline quiesced. In
// turn, its replies go straight to the connection; ahead of its turn (an
// earlier command is in flight, or an earlier write reply is parked) they
// are captured and re-sequenced. A write whose reply parked keeps its turn.
func (e *shardEngine) runHere(c *client, seq uint64, cmd *store.Command, argv [][]byte) {
	s := e.s
	if seq == c.seqEmit {
		if !s.execute(c, seq, cmd, argv) {
			c.seqEmit++
			e.drain(c)
		}
		return
	}
	e.capClient, e.capBuf = c, e.capBuf[:0]
	parked := s.execute(c, seq, cmd, argv)
	buf := e.capBuf
	e.capClient = nil
	if !parked {
		e.complete(c, seq, buf)
	}
}

// runWait admits a WAIT without fencing. It must still observe the
// caller's preceding writes (their merges record offsets), so it runs at
// its sequence turn: immediately when the client has nothing in flight,
// otherwise parked in client.pending until drain() reaches it. Other
// clients' traffic keeps flowing through the shards either way.
func (e *shardEngine) runWait(c *client, seq uint64, cmd *store.Command, argv [][]byte) {
	e.waits.Inc()
	if seq == c.seqEmit {
		e.runHere(c, seq, cmd, argv)
		return
	}
	c.await(seq, turn{cmd: cmd, argv: resp.CloneCommand(argv)})
}

// runBarrier executes a cross-shard or ordering-sensitive command on the
// dispatch proc with the pipeline quiesced (inflight == 0).
func (e *shardEngine) runBarrier(c *client, seq uint64, cmd *store.Command, argv [][]byte) {
	s := e.s
	e.fenced.Inc()
	// Fencing costs one cross-core synchronization per shard core.
	s.proc.Core.Charge(s.params.ShardFenceCPU * sim.Duration(len(e.ownCore)))
	e.runHere(c, seq, cmd, argv)
}

// complete records a command's reply (nil = none) against its sequence
// number: in turn it goes out now, followed by whatever was waiting behind
// it; otherwise a held copy waits in c.pending for its turn. reply is only
// borrowed.
func (e *shardEngine) complete(c *client, seq uint64, reply []byte) {
	if seq != c.seqEmit {
		c.await(seq, turn{reply: c.hold(reply)})
		return
	}
	c.seqEmit++
	e.emit(c, reply)
	e.drain(c)
}

// await parks t until the connection's sequence reaches seq.
func (c *client) await(seq uint64, t turn) {
	if c.pending == nil {
		c.pending = make(map[uint64]turn)
	}
	c.pending[seq] = t
}

// emit sends one reply on the connection.
func (e *shardEngine) emit(c *client, data []byte) {
	s := e.s
	if len(data) > 0 && s.alive && !c.closed {
		s.send(c, data)
	}
}

// drain takes every consecutive waiting turn from c.seqEmit on, in client
// request order: ready replies go out, sequence-ordered parked commands
// (WAIT) execute. Every path that advances c.seqEmit ends here — and once
// every numbered command has replied, no held reply is left to point into
// c.held, so it is reused from the start.
func (e *shardEngine) drain(c *client) {
	s := e.s
	for len(c.pending) > 0 {
		seq := c.seqEmit
		t, ok := c.pending[seq]
		if !ok {
			break
		}
		delete(c.pending, seq)
		c.seqEmit++
		if t.cmd == nil {
			e.emit(c, t.reply)
		} else if s.alive && !c.closed {
			s.execute(c, seq, t.cmd, t.argv)
		}
	}
	if c.seqEmit == c.seqNext {
		c.held = c.held[:0]
	}
}

// mergeDone retires one cross-core command; when the pipeline drains with a
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
// again; a second barrier in the queue re-arms holding (queueing itself
// at the tail) and the loop rotates the rest of the queue behind it for
// the next drain.
func (e *shardEngine) drainHeld() {
	if e.inflight != 0 || !e.holding {
		return
	}
	e.holding = false
	if !e.s.alive {
		e.holdq.Reset()
		return
	}
	for n := e.holdq.Len(); n > 0; n-- {
		h := e.holdq.Pop()
		if e.holding {
			e.holdq.Push(h)
			continue
		}
		if h.c.closed {
			// The client disconnected while its command sat behind the
			// barrier: admitting it would execute for (and build replies,
			// park WAITs, and charge cores on behalf of) a dead connection.
			continue
		}
		e.admitFrom(h.c, h.seq, h.cmd, h.argv, true)
	}
}

// cron runs the per-shard time event: each shard actively expires and
// rehashes only the keys it owns, on its own core — which for a shard that
// shares the dispatch proc is the dispatch cron event this is called from.
func (e *shardEngine) cron() {
	for si, proc := range e.procs {
		if proc == e.s.proc {
			e.shardCron(si)
			continue
		}
		proc.Post(e.s.params.CronCPU, func() { e.shardCron(si) })
	}
}

func (e *shardEngine) shardCron(si int) {
	s := e.s
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
}
