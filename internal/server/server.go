// Package server implements the Redis-like key-value server SKV builds on
// (paper §II-B, Fig 4): an event loop handling file events (client sockets /
// RDMA connections) and time events (serverCron), client objects with query
// and reply buffers, command dispatch into the store, and master-slave
// replication. Every command takes one pipeline — dispatch → shard → merge →
// re-sequence (shard.go) — of which the paper's single-threaded loop is the
// one-shard case.
//
// Instantiated over internal/tcpsim it is the "original Redis" baseline;
// over internal/rconn it is RDMA-Redis. The SKV system in internal/core
// reuses it with the replication path redirected to the SmartNIC.
package server

import (
	"fmt"
	"math"
	"math/rand"

	"skv/internal/backlog"
	"skv/internal/consistency"
	"skv/internal/metrics"
	"skv/internal/model"
	"skv/internal/replstream"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/store"
	"skv/internal/tracking"
	"skv/internal/transport"
)

// Role is the node's replication role.
type Role int

// Replication roles.
const (
	RoleMaster Role = iota
	RoleSlave
)

func (r Role) String() string {
	if r == RoleSlave {
		return "slave"
	}
	return "master"
}

// Options configures a Server.
type Options struct {
	// Name identifies the server in logs and stats.
	Name string
	// Params supplies the cost model; nil uses model.Default().
	Params *model.Params
	// Seed drives the server's internal randomness deterministically.
	Seed int64
	// Port is the listen port (default 6379).
	Port int
	// DisableCron turns off serverCron time events (unit tests only).
	DisableCron bool
	// Cluster, when non-nil, makes the node one member of a multi-master
	// hash-slot cluster: keyed commands are checked against the shared
	// routing table at admission and redirected (MOVED) or rejected
	// (CROSSSLOT) when this node's group does not own them. nil means a
	// single-master server: no slot check, no extra charge.
	Cluster *ClusterRouting
	// WriteConsistency is the default write consistency level (per-client
	// overrides via SKV.CONSISTENCY). Async — the zero value — replies
	// before replication.
	WriteConsistency consistency.Level
	// WriteQuorum is W for Quorum consistency (min 1).
	WriteQuorum int
}

// Server is one key-value node: a dispatch process bound to a transport
// stack, in front of its shards.
type Server struct {
	name   string
	eng    *sim.Engine
	proc   *sim.Proc
	stack  transport.Stack
	params *model.Params
	rnd    *rand.Rand

	store   *store.Store
	backlog *backlog.Backlog
	replID  string
	role    Role
	port    int

	clients      map[uint64]*client
	nextClientID uint64

	// Master-side replication state. repl owns the replication stream:
	// backlog append, SELECT injection, offset accounting, and per-tick
	// batching (internal/replstream).
	slaves []*slaveHandle
	repl   *replstream.Writer
	// WriteGate, when non-nil, can veto writes (SKV's min-slaves rule).
	WriteGate func() string

	// Slave-side replication state: the baseline master link, or Upstream
	// when an embedding layer follows the stream instead.
	master   *masterLink
	Upstream Upstream

	// OnPropagate, when non-nil, replaces the default feed-each-slave
	// replication path with the SKV offload (the batch goes to Nic-KV as
	// one replication request). The backlog has already been appended when
	// it runs.
	OnPropagate func(replstream.Batch)

	// OnRoleChange is invoked after promotion/demotion (failover tests).
	OnRoleChange func(Role)

	// acks is the consistency plane: per-replica acknowledged offsets
	// (REPLCONF ACKs on the baseline, Nic-KV status frames on SKV),
	// per-client last-write offsets, blocked WAITs, and parked write
	// replies (internal/consistency).
	acks *consistency.AckTracker
	// defLevel/defW are the configured write consistency defaults.
	defLevel consistency.Level
	defW     int

	// Client-side caching (CLIENT TRACKING, see tracking.go). track is the
	// in-band interest table, allocated on first use. OnTrackInterest /
	// OnTrackDrop, when non-nil, let redirect-mode tracking offload the
	// table to Nic-KV: the server forwards interest and forgets it.
	track           *tracking.Table
	OnTrackInterest func(name, key string)
	OnTrackDrop     func(name string)

	alive bool
	cron  *sim.Ticker

	// Stats with no registry counter twin.
	WritesPropagated uint64
	ErrRepliesSent   uint64

	// shard is the command pipeline behind admission: shards, merge stage
	// and per-client reply re-sequencing (shard.go).
	shard *shardEngine

	// cluster is the hash-slot routing state (nil outside cluster mode);
	// clusterStats are the admission-plane redirect counters.
	cluster      *ClusterRouting
	clusterStats *clusterInstruments

	// metrics is the node's instrument registry; cmdStats caches the
	// per-command counter/histogram pair so the hot path never rebuilds
	// instrument names.
	metrics  *metrics.Registry
	cmdStats map[string]*cmdInstruments
	// extraInfo holds INFO sections registered by embedding layers (the SKV
	// Host-KV section).
	extraInfo []func() store.InfoSection
}

// cmdInstruments is the per-command metrics pair: invocation count and
// CPU-service-time histogram.
type cmdInstruments struct {
	calls   *metrics.Counter
	service *metrics.LatencyHist
}

// client mirrors the Redis client object: per-connection buffers and state.
type client struct {
	id     uint64
	conn   transport.Conn
	reader resp.Reader
	// argv is the header every command is borrowed into from reader: valid
	// until the next read, so the pipeline copies it where it defers one.
	argv [][]byte
	// out is the reply scratch: a command executing for this connection
	// appends its reply here, and the reply is sent — or held — before the
	// connection's next command executes.
	out []byte
	// held keeps replies that outlive the event that built them: parked
	// write replies, replies waiting for their turn, and replies crossing a
	// core. It is reused from the start whenever every numbered command has
	// replied; until then a full chunk is left to the replies in it and a new
	// one started.
	held []byte
	db   int
	// isSlaveLink marks the connection as a replication channel to a slave.
	isSlaveLink bool
	closed      bool

	// owner is the proc that delivers the connection's reads and whose core
	// is charged for parse, route, inline execution and reply emission: the
	// routing proc the connection is pinned to (RouteListeners > 1), the
	// dispatch proc otherwise. Never nil.
	owner *sim.Proc
	// route is 1 + the owning routing proc's index (0 = dispatch-owned).
	route int

	// Reply re-sequencing: seqNext numbers commands in arrival order,
	// seqEmit is the turn the connection may carry next, pending holds what
	// waits for a later turn: completed-but-unemittable replies, and
	// commands that must run in sequence order on the dispatch proc (WAIT).
	seqNext uint64
	seqEmit uint64
	pending map[uint64]turn

	// asking is the one-shot ASK escape: the previous command on this
	// connection was ASKING, so the next keyed command may address an
	// importing slot this node does not own. Consumed by slotCheck.
	asking bool

	// consOv, when set, overrides the server's write consistency defaults
	// for this connection (SKV.CONSISTENCY).
	consOv    bool
	consLevel consistency.Level
	consW     int

	// track is the connection's CLIENT TRACKING state: whether it is a
	// subscriber, under which name, and in which table its interest lands.
	track tracking.Conn
}

// turn is what waits in client.pending for its sequence number to come up:
// a finished command's reply (nil = none, else held), or — cmd set — a
// command to run then, its argv the pipeline's own copy.
type turn struct {
	reply []byte
	cmd   *store.Command
	argv  [][]byte
}

// Upstream is the replication stream a slave follows when an embedding
// layer, not the baseline master link, drives it (the SKV slave agent, fed
// through Nic-KV): SyncedWithMaster, MasterOffset and INFO report it.
type Upstream interface {
	Synced() bool
	Offset() int64
}

// slaveHandle is the master's view of one attached slave; its acknowledged
// offset lives on the consistency tracker, keyed by addr.
type slaveHandle struct {
	client *client
	addr   string
}

// Every server has numDBs SELECT-able databases and a backlogSize-byte
// replication backlog. A connection's held replies fill heldChunk-byte
// chunks, and its reply scratch keeps at most maxOut bytes between commands.
const (
	numDBs      = 16
	backlogSize = 1 << 20
	heldChunk   = 4 << 10
	maxOut      = 64 << 10
)

// scratch lends c's reply scratch, empty, to a dispatch whose reply is sent
// or held before c's next command executes.
func (c *client) scratch() []byte { return c.out[:0] }

// keep takes back the scratch a dispatch appended reply to, grown if it had
// to, unless it grew past maxOut. reply stays valid until the next scratch.
func (c *client) keep(reply []byte) {
	if cap(reply) <= maxOut {
		c.out = reply[:0]
	}
}

// hold copies a reply that must outlive the event that built it into c's
// held chunk.
func (c *client) hold(reply []byte) []byte {
	if len(reply) == 0 {
		return nil
	}
	if len(c.held)+len(reply) > cap(c.held) {
		c.held = make([]byte, 0, max(heldChunk, len(reply)))
	}
	at := len(c.held)
	c.held = append(c.held, reply...)
	return c.held[at:len(c.held):len(c.held)]
}

// New creates a server on the given transport stack. The stack's process is
// the server's dispatch proc. The pipeline's shape comes from the cost
// model: Params.HostShards shard procs, each on its own core, behind the
// dispatch/merge stage (0 or 1 is one shard on the dispatch proc's own
// core: the paper's single event loop), and Params.RouteListeners routing
// procs in front of it when there are several shards.
func New(opts Options, eng *sim.Engine, stack transport.Stack, proc *sim.Proc) *Server {
	p := opts.Params
	if p == nil {
		def := model.Default()
		p = &def
	}
	if opts.Port == 0 {
		opts.Port = 6379
	}
	rnd := rand.New(rand.NewSource(opts.Seed ^ 0x5b17))
	s := &Server{
		name:     opts.Name,
		eng:      eng,
		proc:     proc,
		stack:    stack,
		params:   p,
		rnd:      rnd,
		backlog:  backlog.New(backlogSize),
		replID:   fmt.Sprintf("%016x%016x", rnd.Uint64(), rnd.Uint64()),
		clients:  make(map[uint64]*client),
		port:     opts.Port,
		alive:    true,
		metrics:  metrics.NewRegistry(opts.Name, eng.Now),
		cmdStats: make(map[string]*cmdInstruments),
		cluster:  opts.Cluster,
		defLevel: opts.WriteConsistency,
		defW:     opts.WriteQuorum,
	}
	s.acks = consistency.NewTracker(s.metrics)
	s.acks.Release = s.releaseWrite
	if s.cluster != nil {
		s.clusterStats = newClusterInstruments(s.metrics)
	}
	shards := max(p.HostShards, 1)
	s.store = store.New(store.Options{DBs: numDBs, Shards: shards, Seed: opts.Seed ^ 0x57a7e, Clock: func() int64 {
		return int64(eng.Now() / sim.Time(sim.Millisecond))
	}})
	s.store.InfoProvider = s.infoSections
	s.shard = newShardEngine(s, opts.Name, shards, p.RouteListeners)
	s.repl = replstream.NewWriter(replstream.WriterConfig{
		Backlog: s.backlog,
		MaxCmds: p.ReplBatchMaxCmds,
		Flush:   s.flushReplBatch,
		Metrics: s.metrics,
		// Partial batches flush at the end of the event-loop iteration
		// that appended their first command — Redis's beforeSleep: once
		// every task already queued on this server's proc at that moment
		// has run (the timer follows the core's busy point until then).
		// Under load that coalesces every write the iteration processes;
		// idle, it fires right after the producing task. Work that arrives
		// later never holds a batch back, so a saturated producer still
		// flushes once per iteration. With ReplBatchMaxDelay set, the
		// quiesce flush is replaced by a doorbell-coalescing timer — an
		// underloaded producer quiesces between every two writes, which
		// would collapse every batch to one command.
		Schedule: func(fn func()) {
			if d := p.ReplBatchMaxDelay; d > 0 {
				eng.After(d, fn)
				return
			}
			iterEnd := s.proc.Handled + uint64(s.proc.QueueLen())
			var arm func()
			arm = func() {
				eng.After(s.proc.Core.BusyUntil().Sub(eng.Now()), func() {
					if s.proc.Handled < iterEnd {
						arm()
						return
					}
					fn()
				})
			}
			arm()
		},
	})
	stack.Listen(opts.Port, s.accept)
	if !opts.DisableCron {
		s.cron = eng.Every(p.CronPeriod, s.serverCron)
	}
	return s
}

// Accessors used by the SKV layer and the benchmark harness.

// Name reports the server's identifier.
func (s *Server) Name() string { return s.name }

// Store exposes the keyspace.
func (s *Server) Store() *store.Store { return s.store }

// Backlog exposes the replication backlog.
func (s *Server) Backlog() *backlog.Backlog { return s.backlog }

// Proc exposes the server's dispatch process.
func (s *Server) Proc() *sim.Proc { return s.proc }

// Params exposes the cost model.
func (s *Server) Params() *model.Params { return s.params }

// Engine exposes the simulation engine.
func (s *Server) Engine() *sim.Engine { return s.eng }

// Stack exposes the transport stack.
func (s *Server) Stack() transport.Stack { return s.stack }

// Role reports the current replication role.
func (s *Server) Role() Role { return s.role }

// ReplID reports the replication ID.
func (s *Server) ReplID() string { return s.replID }

// ReplOffset reports the master replication offset (bytes of write stream).
func (s *Server) ReplOffset() int64 { return s.backlog.EndOffset() }

// Port reports the listen port.
func (s *Server) Port() int { return s.port }

// Alive reports whether the process is running (false after Crash).
func (s *Server) Alive() bool { return s.alive }

// Metrics exposes the node's instrument registry.
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// Acks exposes the consistency plane: replica ack offsets, per-client write
// offsets, blocked WAITs, and parked write replies. The SKV Host-KV pushes
// Nic-KV status offsets and ack-release watermarks through this.
func (s *Server) Acks() *consistency.AckTracker { return s.acks }

// NumShards reports how many shards execute keyspace commands.
func (s *Server) NumShards() int { return len(s.shard.procs) }

// ShardRegistries exposes the instrument registries of the shards that own
// a core (empty when the one shard shares the dispatch proc).
func (s *Server) ShardRegistries() []*metrics.Registry { return s.shard.regs }

// ShardProcs exposes the shard procs that own a core (empty when the one
// shard shares the dispatch proc); the bench harness reads their cores'
// utilization.
func (s *Server) ShardProcs() []*sim.Proc { return s.shard.ownCore }

// NumRouteListeners reports how many routing procs front the dispatch proc
// (0 when the routing plane is off).
func (s *Server) NumRouteListeners() int { return len(s.shard.routeProcs) }

// RouteRegistries exposes the per-listener instrument registries (empty
// when the routing plane is off).
func (s *Server) RouteRegistries() []*metrics.Registry { return s.shard.routeRegs }

// RouteProcs exposes the routing procs (empty when the routing plane is
// off); the bench harness reads their cores' utilization.
func (s *Server) RouteProcs() []*sim.Proc { return s.shard.routeProcs }

// AddInfoSection registers an extra INFO section producer (the SKV layer
// adds its offload section through this).
func (s *Server) AddInfoSection(fn func() store.InfoSection) {
	s.extraInfo = append(s.extraInfo, fn)
}

// CommandsProcessed reports the commands dispatched since boot: the sum of
// the per-command server.cmd.<name>.calls counters.
func (s *Server) CommandsProcessed() uint64 {
	var n uint64
	for _, ci := range s.cmdStats {
		n += ci.calls.Value()
	}
	return n
}

// cmdInstrumentsFor returns the cached per-command instruments, resolving
// them on first use.
func (s *Server) cmdInstrumentsFor(name string) *cmdInstruments {
	ci := s.cmdStats[name]
	if ci == nil {
		ci = &cmdInstruments{
			calls:   s.metrics.Counter("server.cmd." + name + ".calls"),
			service: s.metrics.Histogram("server.cmd." + name + ".service"),
		}
		s.cmdStats[name] = ci
	}
	return ci
}

// serverCron is the periodic time event: active expiry, rehash steps,
// replication bookkeeping. Its CPU cost is a deliberate tail-latency source.
func (s *Server) serverCron() {
	if !s.alive {
		return
	}
	s.proc.Post(s.params.CronCPU, func() {
		// Each shard expires and rehashes its own slice, on its own core.
		s.shard.cron()
		if s.role == RoleSlave && s.master != nil {
			s.master.sendAck()
		}
	})
}

// accept handles a new inbound connection.
func (s *Server) accept(conn transport.Conn) {
	if !s.alive {
		return
	}
	s.nextClientID++
	c := &client{id: s.nextClientID, conn: conn, owner: s.proc}
	s.clients[c.id] = c
	s.shard.adoptClient(c)
	conn.SetHandler(func(data []byte) { s.readQueryFromClient(c, data) })
	conn.SetCloseHandler(func() { s.freeClient(c) })
}

// coreFor is the CPU core charged for work done on behalf of c: the owning
// routing core when the routing plane has the connection, the dispatch core
// otherwise.
func (s *Server) coreFor(c *client) *sim.Core { return c.owner.Core }

// disownClient returns a routing-plane connection to the dispatch proc:
// replication channels (PSYNC) must live where the merge stage feeds them,
// and their costs belong to the serialized-stream owner.
func (s *Server) disownClient(c *client) {
	if c.owner == s.proc {
		return
	}
	c.owner = s.proc
	c.route = 0
	if pa, ok := c.conn.(transport.ProcAssignable); ok {
		pa.AssignProc(s.proc)
	}
}

func (s *Server) freeClient(c *client) {
	c.closed = true
	delete(s.clients, c.id)
	for i, sl := range s.slaves {
		if sl.client == c {
			s.slaves = append(s.slaves[:i], s.slaves[i+1:]...)
			s.acks.DropReplica(sl.addr)
			break
		}
	}
	// Retire everything the consistency plane holds for this client:
	// blocked WAITs (timers cancelled, nothing replied — the connection is
	// gone) and parked write replies.
	s.acks.DropOwner(c.id)
	c.track.Off(s.untrack)
}

// readQueryFromClient is the file-event read callback (paper Fig 4): feed
// the query buffer, parse complete commands, execute each.
func (s *Server) readQueryFromClient(c *client, data []byte) {
	if !s.alive {
		return
	}
	c.reader.Feed(data)
	for {
		argv, ok, err := c.reader.BorrowCommand(c.argv)
		c.argv = argv
		if err != nil {
			s.send(c, resp.AppendError(nil, "ERR Protocol error"))
			c.conn.Close()
			s.freeClient(c)
			return
		}
		if !ok {
			return
		}
		s.processCommand(c, argv)
		if !s.alive {
			return
		}
	}
}

// execCost models the CPU consumed executing a command body. cmd may be
// nil (unknown command: the store's error path is charged like the default
// case).
func (s *Server) execCost(cmd *store.Command, argv [][]byte) sim.Duration {
	p := s.params
	var base sim.Duration
	var payload int
	name := ""
	if cmd != nil {
		name = cmd.Name
	}
	switch name {
	case "get":
		base = p.CmdExecGetCPU
		if len(argv) > 1 {
			payload = len(argv[1])
		}
	case "set":
		base = p.CmdExecSetCPU
		if len(argv) > 2 {
			payload = len(argv[2])
		}
	default:
		base = p.CmdExecSetCPU
		for _, a := range argv[1:] {
			payload += len(a)
		}
	}
	cost := base + sim.Duration(float64(payload)*p.CmdExecPerByte)
	if p.ExecJitterSigma > 0 {
		f := math.Exp(p.ExecJitterSigma * s.rnd.NormFloat64() * 0.5)
		cost = sim.Duration(float64(cost) * f)
	}
	return cost
}

// processCommand runs one parsed command on behalf of a client: charge
// parse+execute CPU, dispatch (server-level commands first, then the
// store), reply, and propagate writes.
func (s *Server) processCommand(c *client, argv [][]byte) {
	// One allocation-free descriptor lookup covers server-level dispatch,
	// the write check, the cost model, and the store's execution.
	cmd := store.LookupCommand(argv[0])
	name := "unknown"
	if cmd != nil {
		name = cmd.Name
	}
	ci := s.cmdInstrumentsFor(name)
	ci.calls.Inc()
	// Service time is the CPU this command consumes on the core serving the
	// connection (the routing core when the routing plane owns it): the
	// busy-point advance across dispatch. Deterministic, unlike wall time.
	core := s.coreFor(c)
	busyStart := core.BusyUntil()
	if now := s.eng.Now(); busyStart < now {
		busyStart = now
	}
	s.dispatchCommand(c, cmd, argv)
	ci.service.Observe(core.BusyUntil().Sub(busyStart))
}

func (s *Server) dispatchCommand(c *client, cmd *store.Command, argv [][]byte) {
	size := 0
	for _, a := range argv {
		size += len(a) + 14 // RESP framing overhead per arg
	}
	s.coreFor(c).Charge(s.params.ParseCost(size))

	// Every command is numbered once, here, on arrival: whichever stage ends
	// up answering it — the admission plane below, a shard, a barrier drain —
	// its reply takes this turn on the connection.
	seq := c.seqNext
	c.seqNext++

	// ASKING is handled at admission, not execution: its flag must be
	// visible to the NEXT command's slot check, which also runs at
	// admission — deferring ASKING behind a barrier hold queue while the
	// next command's check reads a stale flag would break the protocol.
	if s.cluster != nil && cmd != nil && cmd.Server && cmd.Name == "asking" {
		c.asking = true
		s.shard.complete(c, seq, resp.AppendSimple(nil, "OK"))
		return
	}

	// Cluster mode: verify this node's group owns every key's slot before
	// the command enters the pipeline. Redirects re-sequence like any other
	// reply, so pipelined clients see them in request order.
	if s.cluster != nil && cmd != nil && !cmd.Server && cmd.FirstKey > 0 {
		s.coreFor(c).Charge(s.params.SlotCheckCPU)
		if redirect := s.slotCheck(c, cmd, argv); redirect != nil {
			s.shard.complete(c, seq, redirect)
			return
		}
	}

	if c.track.Tracks(cmd) {
		s.recordInterest(c, cmd, argv)
	}

	// Hand the parsed command to the pipeline, which routes it to a shard,
	// fences it, or runs it inline.
	s.shard.route(c, seq, cmd, argv)
}

// execute runs one resolved command to completion on the current
// dispatch-plane event: server-level dispatch, execution cost, store
// dispatch, propagation, reply. The pipeline calls it for inline, WAIT and
// barrier commands (single-shard key commands execute on their shard); the
// write gate has already been checked at admission. It reports true when
// the command was a write whose reply parked on the consistency tracker —
// the parked fire, not the caller, completes sequence number seq.
func (s *Server) execute(c *client, seq uint64, cmd *store.Command, argv [][]byte) (parked bool) {
	// Server-level commands (connection state, replication handshake).
	if cmd != nil && cmd.Server {
		switch cmd.Name {
		case "select":
			s.cmdSelect(c, argv)
		case "psync":
			s.cmdPSync(c, argv)
		case "replconf":
			s.cmdReplConf(c, argv)
		case "slaveof", "replicaof":
			s.cmdSlaveOf(c, argv)
		case "wait":
			s.cmdWait(c, argv)
		case "skv.consistency":
			s.cmdConsistency(c, argv)
		case "cluster":
			s.cmdCluster(c, argv)
		case "client":
			s.cmdClient(c, argv)
		case "asking":
			// Outside cluster mode ASKING is a harmless no-op
			// acknowledgement; in cluster mode the admission path answers it
			// before this point.
			s.reply(c, resp.AppendSimple(nil, "OK"))
		}
		return false
	}

	// Live migration: a key in a MIGRATING slot that is no longer here has
	// moved to the target — answer ASK (or TRYAGAIN for a half-present
	// multi-key command) at execution time, when presence is definitive.
	if redirect := s.migrationCheck(cmd, c.db, argv); redirect != nil {
		s.reply(c, redirect)
		return false
	}

	s.coreFor(c).Charge(s.execCost(cmd, argv))
	reply, dirty := s.store.DispatchAppend(c.scratch(), cmd, c.db, argv)
	c.keep(reply)
	if dirty && s.role == RoleMaster {
		need, gate := s.gateNeed(c)
		if s.shard.commit(c, seq, cmd, c.db, argv, reply, need, gate) {
			return true
		}
	}
	s.reply(c, reply)
	return false
}

// reply writes the RESP reply of a command executing on the dispatch plane
// to the client (the addReply → sendReplyToClient path). A command executing
// ahead of its reply turn has its bytes diverted into the pipeline's capture
// buffer for re-sequencing.
func (s *Server) reply(c *client, data []byte) {
	if e := s.shard; c == e.capClient {
		e.capBuf = append(e.capBuf, data...)
		return
	}
	s.send(c, data)
}

// send puts one reply on the connection, charging its build to the core
// that owns the connection. Every reply leaves the server through here, so
// this is where error replies are counted.
func (s *Server) send(c *client, data []byte) {
	if len(data) > 0 && data[0] == resp.TypeError {
		s.ErrRepliesSent++
	}
	s.coreFor(c).Charge(s.params.ReplyBuildCPU)
	c.conn.Send(data)
}

// levelFor resolves the effective write consistency for a connection.
func (s *Server) levelFor(c *client) (consistency.Level, int) {
	if c.consOv {
		return c.consLevel, c.consW
	}
	return s.defLevel, s.defW
}

// gateNeed maps the connection's consistency level to the replica-ack count
// a write reply must wait for; need 0 (async) means reply immediately.
// gate is the same requirement in the form that rides the replication
// stream to an offload layer enforcing it off-host: "all" stays symbolic
// there — the NIC resolves it against its live valid-slave view, which is
// authoritative in SKV mode (the host's bulk tracker only refreshes on
// ProbePeriod status frames and may lag or be empty), while need keeps a
// host-side fallback for the tracker.
func (s *Server) gateNeed(c *client) (need int, gate replstream.Gate) {
	lvl, w := s.levelFor(c)
	switch lvl {
	case consistency.Quorum:
		if w < 1 {
			w = 1
		}
		return w, replstream.QuorumGate(w)
	case consistency.All:
		n := s.acks.ReplicaCount()
		if n < 1 {
			n = 1
		}
		return n, replstream.GateAll
	}
	return 0, 0
}

func (s *Server) cmdSelect(c *client, argv [][]byte) {
	db, reply := s.store.Select(c.db, argv)
	c.db = db
	s.reply(c, reply)
}

// Crash stops the process: no more events are handled until Recover. The
// transport endpoints stay up (the machine is alive; the Host-KV process
// died), so peers observe silence, exactly what Nic-KV's probe-based
// failure detector is built to catch (paper §III-D, Fig 14).
func (s *Server) Crash() {
	s.alive = false
	if s.cron != nil {
		s.cron.Stop()
	}
}

// Recover restarts the process. A slave re-establishes replication with its
// master (partial resync via the backlog when possible).
func (s *Server) Recover() {
	if s.alive {
		return
	}
	s.alive = true
	if s.cron != nil {
		s.cron = s.eng.Every(s.params.CronPeriod, s.serverCron)
	}
	if s.role == RoleSlave && s.master != nil {
		target, port := s.master.targetEP, s.master.targetPort
		s.master = nil
		s.SlaveOf(target, port)
	}
}

// SetRole forces the replication role without side effects (the SKV layer
// manages its own synchronization).
func (s *Server) SetRole(r Role) { s.role = r }

// PromoteToMaster switches a slave into master role (SKV failover).
func (s *Server) PromoteToMaster() {
	if s.role == RoleMaster {
		return
	}
	s.role = RoleMaster
	s.master = nil
	if s.OnRoleChange != nil {
		s.OnRoleChange(RoleMaster)
	}
}

// DemoteRole returns a promoted node to the slave role without touching
// replication links (the SKV slave agent resynchronizes itself) and fires
// OnRoleChange so topology layers — the cluster slot table — observe the
// demotion exactly like they observed the promotion.
func (s *Server) DemoteRole() {
	if s.role == RoleSlave {
		return
	}
	s.role = RoleSlave
	if s.OnRoleChange != nil {
		s.OnRoleChange(RoleSlave)
	}
}
