package core

import (
	"fmt"

	"skv/internal/consistency"
	"skv/internal/fabric"
	"skv/internal/metrics"
	"skv/internal/model"
	"skv/internal/rconn"
	"skv/internal/replstream"
	"skv/internal/ring"
	"skv/internal/sim"
	"skv/internal/store"
	"skv/internal/tracking"
	"skv/internal/transport"
)

// nicGate is the gate one replication request carried: the replies the
// master parked on the batch ending at end may be acknowledged once the
// valid slaves gate asks for have replicated past it. Gates arrive in
// stream-offset order (they ride the batches), so the queue releases
// strictly FIFO: a later, weaker gate never releases ahead of an unsatisfied
// stricter one — the msgAckRelease watermark is a plain high-water mark and
// the master trusts it unconditionally.
type nicGate struct {
	end  int64
	gate replstream.Gate
}

// nodeEntry is one slave in the node list Nic-KV maintains on the SmartNIC
// ("a node list storing the corresponding relationship between the master
// node and the slave node is maintained on the SmartNIC", §III-C).
type nodeEntry struct {
	id     string // fabric endpoint name of the slave host
	conn   transport.Conn
	replID string
	offset int64

	valid       bool // cleared by the failure detector (§III-D invalid flag)
	lastAck     sim.Time
	probeSentAt sim.Time
	threadIdx   int

	// lag is the node's backlog-lag gauge (nickv.lag.<id>): bytes of stream
	// fanned out but not yet acknowledged through progress reports.
	lag *metrics.Gauge

	// With replication threads a fan-out's sends run later, on the node's
	// thread: fanOut queues the connection and a copy of the frame in sends
	// and posts sendTask (sendNext, bound once), which sends the oldest. A
	// sent frame's buffer goes to spare for the next copy, so a node
	// allocates only until its queue has reached its deepest.
	sends    ring.Queue[queuedSend]
	spare    [][]byte
	sendTask func()
}

// queuedSend is one fan-out send waiting for its node's thread.
type queuedSend struct {
	conn  transport.Conn
	frame []byte
}

// queueSend copies frame for a send on conn that sendTask makes later.
func (nd *nodeEntry) queueSend(conn transport.Conn, frame []byte) {
	var buf []byte
	if k := len(nd.spare); k > 0 {
		buf, nd.spare = nd.spare[k-1], nd.spare[:k-1]
	}
	nd.sends.Push(queuedSend{conn: conn, frame: append(buf[:0], frame...)})
}

// sendNext sends the oldest queued frame; Send copies, so its buffer is
// free again.
func (nd *nodeEntry) sendNext() {
	q := nd.sends.Pop()
	q.conn.Send(q.frame)
	nd.spare = append(nd.spare, q.frame)
}

// NicKV is the SmartNIC-resident component of SKV. It runs on the NIC's
// ARM cores (weak, Speed<1) behind the NIC switch, and never handles
// client requests — it only cooperates with other server nodes (§III-C).
type NicKV struct {
	eng    *sim.Engine
	params *model.Params
	net    *fabric.Network
	cfg    Config

	// Stack is the RDMA transport on the SmartNIC endpoint, driven by the
	// main ARM core.
	Stack *rconn.Stack
	proc  *sim.Proc

	// threads are the optional extra replication procs (thread-num > 1),
	// each on its own ARM core; slaves are spread across them evenly.
	threads []*sim.Proc

	nodes   []*nodeEntry
	byConn  map[transport.Conn]*nodeEntry
	nextThr int

	masterConn    transport.Conn
	masterValid   bool
	masterLastAck sim.Time
	masterProbeAt sim.Time
	promotedID    string

	// frame is the scratch buffer the single-threaded fan-out builds each
	// stream frame in, and checkGates its release (Send copies, so every
	// slave is sent the same bytes and the next frame overwrites them).
	frame []byte

	// gates is the FIFO of reply gates the master's requests carried
	// (quorum/all writes). Empty in async deployments, so the legacy fan-out
	// path is untouched.
	gates ring.Queue[nicGate]

	probeTicker *sim.Ticker

	// Shadow replica for the §IV-A ablation (nil unless enabled). The
	// replica mirrors the host shard layout: rprocs are the per-shard procs
	// (the main proc itself at one shard), applyq/applyInflight the apply
	// pipeline, and replicaOff the stream offset the replica has consumed up
	// to (replay trimming + gap detection). See niccache.go.
	replica       *store.Store
	applyReply    []byte // the scratch the replica's applied replies are dropped from
	replApplier   *replstream.Applier
	rprocs        []*sim.Proc
	applyq        ring.Queue[nicApplyOp]
	applyInflight int
	replicaOff    int64

	mReplicaGaps   *metrics.Counter
	mReplicaRouted *metrics.Counter
	mReplicaFenced *metrics.Counter

	// track is the client-side-caching invalidation plane (nil until the
	// first subscriber arms): the interest table with its push channels.
	// subChans names the subscriber each dedicated subscription channel
	// armed, for close cleanup; nicClients numbers the NIC-served
	// connections. See nictrack.go.
	track      *tracking.Table
	subChans   map[transport.Conn]string
	nicClients uint64

	// Failovers and MasterRestores count the promotions and restores this NIC
	// ordered (the timeline records each one).
	Failovers      uint64
	MasterRestores uint64

	// metrics/timeline are the NIC's observability plane: counters and the
	// probe-RTT histogram in the registry, failure-detector and failover
	// transitions as typed timeline events.
	metrics  *metrics.Registry
	timeline *metrics.Timeline
	// streamEnd is the stream offset one past the last fanned-out byte (the
	// reference point for the per-slave lag gauges).
	streamEnd int64

	// ReplRequests counts frames from the master, ReplCmds the commands they
	// carried (equal unless batching); StreamSent counts frames pushed to
	// slaves, InvalidationsPushed invalidation pushes to tracking subscribers.
	ReplRequests        *metrics.Counter
	ReplCmds            *metrics.Counter
	StreamSent          *metrics.Counter
	InvalidationsPushed *metrics.Counter

	mProbesSent   *metrics.Counter
	mProbeAcks    *metrics.Counter
	mMarkDowns    *metrics.Counter
	mMarkUps      *metrics.Counter
	mGatesQueued  *metrics.Counter
	mGateReleases *metrics.Counter
	gGatesPending *metrics.Gauge
	probeRTT      *metrics.LatencyHist
}

// NewNicKV boots Nic-KV on the SmartNIC endpoint of machine m. It creates
// the ARM cores, the main event-loop process, optional replication threads,
// the listener on NicPort, and the 1-second probe time event.
func NewNicKV(eng *sim.Engine, net *fabric.Network, m *fabric.Machine, params *model.Params, cfg Config) *NicKV {
	if m.NIC == nil {
		panic("core: NewNicKV on a machine without a SmartNIC")
	}
	if cfg.ThreadNum < 1 {
		cfg.ThreadNum = 1
	}
	if cfg.ThreadNum > params.NICCores {
		cfg.ThreadNum = params.NICCores
	}
	mainCore := sim.NewCore(eng, m.Name+"-nic-core0", params.NICCoreSpeed)
	proc := sim.NewProc(eng, mainCore, params.CompChannelWake)
	reg := metrics.NewRegistry(m.NIC.Name(), eng.Now)
	n := &NicKV{
		eng:      eng,
		params:   params,
		net:      net,
		cfg:      cfg,
		Stack:    rconn.New(net, m.NIC, proc),
		proc:     proc,
		byConn:   make(map[transport.Conn]*nodeEntry),
		metrics:  reg,
		timeline: metrics.NewTimeline(eng.Now),

		ReplRequests:        reg.Counter("nickv.repl.requests"),
		ReplCmds:            reg.Counter("nickv.repl.cmds"),
		StreamSent:          reg.Counter("nickv.stream.sent"),
		mProbesSent:         reg.Counter("nickv.probe.sent"),
		mProbeAcks:          reg.Counter("nickv.probe.acks"),
		mMarkDowns:          reg.Counter("nickv.node.mark_down"),
		mMarkUps:            reg.Counter("nickv.node.mark_up"),
		mGatesQueued:        reg.Counter("nickv.gate.queued"),
		mGateReleases:       reg.Counter("nickv.gate.releases"),
		gGatesPending:       reg.Gauge("nickv.gate.pending"),
		probeRTT:            reg.Histogram("nickv.probe.rtt"),
		InvalidationsPushed: reg.Counter("nickv.track.invalidations"),
	}
	n.Stack.Device().SetMetrics(reg)
	// cfg.ThreadNum was clamped to [1, NICCores] above; record what the NIC
	// actually runs so operators see the clamp, not the requested number.
	reg.Gauge("nickv.threads.effective").Set(int64(cfg.ThreadNum))
	for i := 1; i < cfg.ThreadNum; i++ {
		c := sim.NewCore(eng, fmt.Sprintf("%s-nic-core%d", m.Name, i), params.NICCoreSpeed)
		n.threads = append(n.threads, sim.NewProc(eng, c, params.CompChannelWake))
	}
	n.Stack.Listen(NicPort, n.accept)
	n.probeTicker = eng.Every(params.ProbePeriod, n.probeTick)
	if cfg.ServeReadsFromNIC {
		n.initReadServing(m.Name)
	}
	return n
}

// Proc exposes the main ARM-core process (utilization reporting).
func (n *NicKV) Proc() *sim.Proc { return n.proc }

// Metrics exposes the NIC's instrument registry.
func (n *NicKV) Metrics() *metrics.Registry { return n.metrics }

// Timeline exposes the failover timeline tracer.
func (n *NicKV) Timeline() *metrics.Timeline { return n.timeline }

// EffectiveThreads reports how many replication threads Nic-KV actually
// runs after clamping the configured ThreadNum to the ARM core count.
func (n *NicKV) EffectiveThreads() int { return n.cfg.ThreadNum }

// masterNode is the timeline/metrics label for the master, which Nic-KV
// addresses by its control connection rather than a node-list entry.
const masterNode = "master"

// masterLabel is the timeline label for this NIC's master: "master" in a
// single-group deployment, group-qualified (e.g. "g1.master") when the SKV
// unit is one replication group of many.
func (n *NicKV) masterLabel() string {
	if n.cfg.Group != "" {
		return n.cfg.Group + "." + masterNode
	}
	return masterNode
}

// lagGaugeName namespaces the per-slave lag gauge by replication group so
// multi-master snapshots never collide; a single group (Group == "") is
// plain nickv.lag.<id>.
func (n *NicKV) lagGaugeName(id string) string {
	if n.cfg.Group != "" {
		return "nickv.lag." + n.cfg.Group + "." + id
	}
	return "nickv.lag." + id
}

// markNodeDown sets the invalid flag on a node-list entry, recording the
// transition once.
func (n *NicKV) markNodeDown(nd *nodeEntry) {
	if !nd.valid {
		return
	}
	nd.valid = false
	n.mMarkDowns.Inc()
	n.timeline.Record(metrics.EventMarkDown, nd.id)
}

// eachValidSlave visits every node that currently counts as a valid slave:
// not flagged by the failure detector and not promoted to master. The one
// definition of "valid slave" shared by availability reporting, status
// frames, and replication fan-out.
func (n *NicKV) eachValidSlave(fn func(*nodeEntry)) {
	for _, nd := range n.nodes {
		if nd.valid && nd.id != n.promotedID {
			fn(nd)
		}
	}
}

// ValidSlaves reports the slaves currently marked valid (excluding a
// promoted node).
func (n *NicKV) ValidSlaves() int {
	c := 0
	n.eachValidSlave(func(*nodeEntry) { c++ })
	return c
}

func (n *NicKV) accept(conn transport.Conn) {
	conn.SetHandler(func(data []byte) { n.onMessage(conn, data) })
	conn.SetCloseHandler(func() {
		if nd := n.byConn[conn]; nd != nil {
			n.markNodeDown(nd)
			// Drop the dead connection so probeTick and fanOut stop feeding
			// it; the slave re-registers on a fresh connection.
			nd.conn = nil
		}
		delete(n.byConn, conn)
		// A dead subscription channel takes its interest with it: the
		// client flushes its cache on channel loss and re-registers, so
		// keeping stale entries would only pin the table.
		if name, ok := n.subChans[conn]; ok {
			delete(n.subChans, conn)
			n.track.DropSub(name)
		}
		if conn == n.masterConn {
			n.masterConn = nil
			// Gated replies died with the master's client connections; a
			// restarted master re-posts gates for whatever it re-parks.
			n.gates.Reset()
			n.gGatesPending.Set(0)
			if n.masterValid {
				// The master's control connection died while it was still
				// considered healthy: treat it like a probe timeout.
				n.masterValid = false
				n.mMarkDowns.Inc()
				n.timeline.Record(metrics.EventMarkDown, n.masterLabel())
				n.failover()
			}
		}
	})
}

// onMessage dispatches one frame received on the SmartNIC. It runs on the
// main ARM core with the completion cost already charged by the transport.
func (n *NicKV) onMessage(conn transport.Conn, data []byte) {
	if len(data) == 0 {
		return
	}
	r := &frameReader{b: data, pos: 1}
	switch data[0] {
	case msgMasterHello:
		// The master announced itself. On a plain boot this just arms the
		// detector — but a hello while a slave is promoted is the original
		// master RETURNING after a failover (§III-D): it must go through
		// restoreMaster so the promoted slave is demoted, or both nodes
		// keep the master role (split-brain).
		n.masterConn = conn
		n.masterLastAck = n.eng.Now()
		n.masterProbeAt = 0 // fresh connection: restart the probe cycle
		if n.promotedID != "" {
			n.restoreMaster()
		} else {
			n.masterValid = true
		}
	case msgInitSync:
		id := r.str()
		replID := r.str()
		off := r.i64()
		if r.bad {
			return
		}
		n.registerSlave(id, replID, off, conn)
	case msgOffload:
		n.ReplRequests.Inc()
		n.proc.Core.Charge(n.params.NicParseReqCPU)
		off, gate, cnt, cmds, ok := r.offload()
		if !ok {
			return
		}
		if gate != 0 {
			// The gate arrives with the bytes it covers: queue it first, so
			// this very fan-out goes out tagged msgCmdStreamAck and each
			// slave's report on applying it is the one the gate waits for.
			n.mGatesQueued.Inc()
			n.gates.Push(nicGate{end: off + int64(len(cmds)), gate: gate})
			n.gGatesPending.Set(int64(n.gates.Len()))
		}
		n.fanOut(off, cmds, cnt)
	case msgProgress:
		if nd := n.byConn[conn]; nd != nil {
			nd.offset = r.i64()
			nd.lastAck = n.eng.Now()
			nd.lag.Set(lagBehind(n.streamEnd, nd.offset))
			n.checkGates()
		}
	case msgTrackHello:
		name := r.str()
		if r.bad {
			return
		}
		n.registerSubscriber(name, conn)
	case msgTrackKey:
		name := r.str()
		key := r.key()
		if r.bad {
			return
		}
		n.trackInterest(name, key)
	case msgTrackDrop:
		name := r.str()
		if r.bad {
			return
		}
		n.track.DropSub(name)
	case msgProbeAck:
		n.mProbeAcks.Inc()
		if conn == n.masterConn {
			n.masterLastAck = n.eng.Now()
			if n.masterProbeAt > 0 {
				n.probeRTT.Observe(n.eng.Now().Sub(n.masterProbeAt))
			}
			if !n.masterValid {
				n.restoreMaster()
			}
			return
		}
		if nd := n.byConn[conn]; nd != nil {
			nd.lastAck = n.eng.Now()
			if nd.probeSentAt > 0 {
				n.probeRTT.Observe(n.eng.Now().Sub(nd.probeSentAt))
			}
			if !nd.valid {
				// §III-D / Fig 14: recovered node — remove the invalid
				// flag and replicate normally as before.
				nd.valid = true
				n.mMarkUps.Inc()
				n.timeline.Record(metrics.EventMarkUp, nd.id)
				// A recovered node may tip a pending quorum over its need.
				n.checkGates()
			}
		}
	}
}

// checkGates pops every satisfied gate off the FIFO head and reports the
// highest released offset to the master in a single msgAckRelease frame. A
// gate is satisfied when the valid slaves it asks for have reported offsets
// at or past its end; the strict FIFO order means a stricter gate blocks
// weaker ones behind it, which keeps the release watermark sound (see
// nicGate).
func (n *NicKV) checkGates() {
	released := int64(-1)
	for n.gates.Len() > 0 {
		g := n.gates.Peek()
		valid, cnt := 0, 0
		n.eachValidSlave(func(nd *nodeEntry) {
			valid++
			if nd.offset >= g.end {
				cnt++
			}
		})
		if cnt < g.gate.Need(valid) {
			break
		}
		released = g.end
		n.gates.Pop()
	}
	if released < 0 {
		return
	}
	n.gGatesPending.Set(int64(n.gates.Len()))
	if n.masterConn != nil {
		n.mGateReleases.Inc()
		n.proc.Core.Charge(n.params.NicFeedSlaveCPU)
		n.frame = appendU64(append(n.frame[:0], msgAckRelease), uint64(released))
		n.masterConn.Send(n.frame)
	}
}

// registerSlave implements §III-C step ①: create a client object for the
// new slave, append its replication status to the node list, and notify
// the master (step ②).
func (n *NicKV) registerSlave(id, replID string, off int64, conn transport.Conn) {
	nd := n.findNode(id)
	if nd == nil {
		nd = &nodeEntry{id: id, threadIdx: n.nextThr, lag: n.metrics.Gauge(n.lagGaugeName(id))}
		nd.sendTask = nd.sendNext
		if len(n.threads) > 0 {
			n.nextThr = (n.nextThr + 1) % len(n.threads)
		}
		n.nodes = append(n.nodes, nd)
	}
	if nd.conn != nil && nd.conn != conn {
		delete(n.byConn, nd.conn)
	}
	nd.conn = conn
	nd.replID = replID
	nd.offset = off
	nd.valid = true
	nd.lastAck = n.eng.Now()
	n.byConn[conn] = nd
	if len(n.threads) > 0 {
		if ca, okAssign := conn.(rconn.CoreAssignable); okAssign {
			ca.AssignSendCore(n.threads[nd.threadIdx].Core)
		}
	}
	if n.masterConn != nil {
		frame := []byte{msgNewSlave}
		frame = appendStr(frame, id)
		frame = appendStr(frame, replID)
		frame = appendU64(frame, uint64(off))
		n.masterConn.Send(frame)
	}
	// A (re-)joining slave that kept its offset may satisfy a pending gate.
	n.checkGates()
}

func (n *NicKV) findNode(id string) *nodeEntry {
	for _, nd := range n.nodes {
		if nd.id == id {
			return nd
		}
	}
	return nil
}

// fanOut is the steady-state replication phase (§III-C, Fig 9): the command
// bytes are written to the send buffer of every valid slave and pushed with
// WRITE_WITH_IMM. A batched request fans out as ONE msgCmdStream frame per
// slave — one CPU charge and one send cover all cmds commands, which is
// where batching amortizes the per-slave feed cost. RESP commands
// self-frame, so the concatenated payload needs no inner lengths and the
// slave's offset-based dedup works unchanged. With thread-num > 1, slaves
// are spread evenly across the ARM cores; the default single-threaded mode
// does everything on the main core.
func (n *NicKV) fanOut(off int64, cmd []byte, cmds int) {
	n.ReplCmds.Add(uint64(cmds))
	if end := off + int64(len(cmd)); end > n.streamEnd {
		n.streamEnd = end
	}
	n.applyToReplica(off, cmd)
	// While reply gates are pending — this request's own, or an earlier one
	// the slaves have yet to cover — the stream goes out tagged
	// msgCmdStreamAck: each slave reports progress as soon as it applies the
	// chunk, so the gate releases at apply latency instead of the
	// ProgressInterval cron. Async deployments never queue gates and keep
	// the legacy frame byte-for-byte.
	tag := byte(msgCmdStream)
	if n.gates.Len() > 0 {
		tag = msgCmdStreamAck
	}
	// Single-threaded, every send happens (and copies) before fanOut
	// returns, so the frame is the NIC's scratch buffer; with replication
	// threads each node queues its own copy for the send its thread makes.
	n.frame = appendStream(n.frame[:0], tag, off, cmd)
	frame := n.frame
	n.eachValidSlave(func(nd *nodeEntry) {
		if nd.conn == nil {
			return
		}
		n.StreamSent.Inc()
		nd.lag.Set(lagBehind(n.streamEnd, nd.offset))
		if len(n.threads) > 0 {
			nd.queueSend(nd.conn, frame)
			n.threads[nd.threadIdx].Post(n.params.NicFeedSlaveCPU, nd.sendTask)
		} else {
			n.proc.Core.Charge(n.params.NicFeedSlaveCPU)
			nd.conn.Send(frame)
		}
	})
	// Invalidation pushes piggyback on the fan-out event: the same stream
	// chunk that just replicated is scanned for tracked keys. No-op (not
	// even a parse) unless the interest table is occupied.
	n.pushTrackInvalidations(cmd)
}

// probeTick fires every ProbePeriod on the NIC: check for overdue replies
// (declaring nodes crashed after waiting-time), send the next round of
// probes, and report status to the master.
func (n *NicKV) probeTick() {
	n.proc.Post(n.params.ProbeCPU, func() {
		now := n.eng.Now()
		deadline := n.params.WaitingTime

		// Failure detection (§III-D): a node whose last reply is older than
		// waiting-time is considered to have crashed and gets the invalid
		// flag in the node list. An outstanding probe that has produced no
		// reply yet counts as a miss on the timeline even before the
		// waiting-time deadline expires.
		for _, nd := range n.nodes {
			if nd.valid && nd.probeSentAt > 0 && nd.lastAck < nd.probeSentAt {
				n.timeline.Record(metrics.EventProbeMiss, nd.id)
			}
			if nd.valid && nd.probeSentAt > 0 && now.Sub(nd.lastAck) >= deadline {
				n.markNodeDown(nd)
			}
		}
		if n.masterConn != nil && n.masterValid && n.masterProbeAt > 0 &&
			n.masterLastAck < n.masterProbeAt {
			n.timeline.Record(metrics.EventProbeMiss, n.masterLabel())
		}
		if n.masterConn != nil && n.masterValid && n.masterProbeAt > 0 &&
			now.Sub(n.masterLastAck) >= deadline {
			n.masterValid = false
			n.mMarkDowns.Inc()
			n.timeline.Record(metrics.EventMarkDown, n.masterLabel())
			n.failover()
		}

		// Send probes.
		probe := []byte{msgProbe}
		if n.masterConn != nil {
			n.masterProbeAt = now
			n.mProbesSent.Inc()
			n.masterConn.Send(probe)
		}
		for _, nd := range n.nodes {
			if nd.conn != nil {
				nd.probeSentAt = now
				n.mProbesSent.Inc()
				nd.conn.Send(probe)
			}
		}

		// Status to the master: valid slave count, slowest offset, and each
		// valid slave's offset (the master's min-slaves / lag write gate
		// and WAIT consume this).
		if n.masterConn != nil && n.masterValid {
			var offs []int64
			n.eachValidSlave(func(nd *nodeEntry) { offs = append(offs, nd.offset) })
			n.masterConn.Send(statusFrame(offs, n.cfg.ThreadNum))
		}
	})
}

// statusFrame encodes the status report to the master: valid-slave count,
// slowest offset, each valid slave's offset, then the NIC's effective
// replication thread count. With zero valid slaves the slowest offset is
// encoded as 0 — not the -1 sentinel, which as uint64 would decode to
// 2^63-ish garbage and poison the master's lag gate.
func statusFrame(offs []int64, threads int) []byte {
	minOff := int64(-1)
	for _, off := range offs {
		if minOff < 0 || off < minOff {
			minOff = off
		}
	}
	if minOff < 0 {
		minOff = 0
	}
	frame := []byte{msgStatus}
	frame = appendU64(frame, uint64(len(offs)))
	frame = appendU64(frame, uint64(minOff))
	for _, off := range offs {
		frame = appendU64(frame, uint64(off))
	}
	frame = appendU64(frame, uint64(threads))
	return frame
}

// failover promotes a slave when the master is declared crashed (§III-D).
// Async keeps the legacy policy — the first available slave in node-list
// order. Quorum/all promote the valid slave with the highest reported
// offset: a gate only releases once `need` slaves' NIC-reported offsets
// cover the write, and the stream applies contiguously, so the max-offset
// node holds every write whose reply was released — the quorum's durability
// guarantee across master loss.
func (n *NicKV) failover() {
	if n.promotedID != "" {
		return // a promotion is already in effect; never stack a second one
	}
	var best *nodeEntry
	for _, nd := range n.nodes {
		if !nd.valid || nd.conn == nil {
			continue
		}
		if best == nil {
			best = nd
			if n.cfg.WriteConsistency == consistency.Async {
				break
			}
			continue
		}
		if nd.offset > best.offset {
			best = nd
		}
	}
	if best == nil {
		return
	}
	n.Failovers++
	n.promotedID = best.id
	n.timeline.Record(metrics.EventPromote, best.id)
	best.conn.Send([]byte{msgPromote})
}

// restoreMaster handles the original master's recovery: it continues as
// master and the previously promoted slave is downgraded (§III-D).
func (n *NicKV) restoreMaster() {
	n.masterValid = true
	n.MasterRestores++
	n.timeline.Record(metrics.EventRestore, n.masterLabel())
	if n.promotedID == "" {
		return
	}
	if nd := n.findNode(n.promotedID); nd != nil && nd.conn != nil {
		n.timeline.Record(metrics.EventDemote, nd.id)
		nd.conn.Send([]byte{msgDemote})
	}
	n.promotedID = ""
}

// lagBehind is the per-slave backlog lag: bytes fanned out past the node's
// acknowledged offset, clamped at zero (a freshly registered node may report
// an offset ahead of anything streamed this session).
func lagBehind(end, off int64) int64 {
	if lag := end - off; lag > 0 {
		return lag
	}
	return 0
}

// PromotedID reports the currently promoted node ("" when the original
// master is healthy).
func (n *NicKV) PromotedID() string { return n.promotedID }

// MasterValid reports the failure detector's view of the master.
func (n *NicKV) MasterValid() bool { return n.masterValid }
