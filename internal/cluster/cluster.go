// Package cluster assembles full simulated deployments of the three
// systems the paper evaluates:
//
//   - KindTCP: original Redis — the server over the kernel TCP model.
//   - KindRDMA: RDMA-Redis — the same server over the verbs transport,
//     master feeding each slave itself (the paper's baseline).
//   - KindSKV: SKV — Host-KV + Nic-KV with replication and failure
//     detection offloaded to the SmartNIC.
//
// A cluster is one or more replication groups — each a master (with a
// SmartNIC for SKV) and its slave machines — and M closed-loop client
// machines, all on a 100Gb fabric, plus the measuring equipment (latency
// histograms, throughput series).
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"skv/internal/consistency"
	"skv/internal/core"
	"skv/internal/fabric"
	"skv/internal/metrics"
	"skv/internal/model"
	"skv/internal/rconn"
	"skv/internal/server"
	"skv/internal/sim"
	"skv/internal/slots"
	"skv/internal/stats"
	"skv/internal/tcpsim"
	"skv/internal/transport"
	"skv/internal/workload"
)

// Kind selects the system under test.
type Kind int

// Systems under test.
const (
	// KindTCP is original Redis over the kernel TCP stack.
	KindTCP Kind = iota
	// KindRDMA is RDMA-Redis: verbs transport, host-driven replication.
	KindRDMA
	// KindSKV is the SmartNIC-offloaded system.
	KindSKV
)

func (k Kind) String() string {
	switch k {
	case KindTCP:
		return "redis"
	case KindRDMA:
		return "rdma-redis"
	case KindSKV:
		return "skv"
	}
	return "?"
}

// Config describes one deployment.
type Config struct {
	Kind Kind
	// Slaves is the slave count of a single-group deployment (hash-slot
	// clusters size their groups with Cluster.SlavesPerMaster).
	Slaves  int
	Clients int
	// Params: nil uses model.Default().
	Params *model.Params
	Seed   int64

	// Workload shape.
	KeySpace  int     // default 10000
	ValueSize int     // default 64
	GetRatio  float64 // fraction of GETs; 0 = pure SET (the paper's default)
	Zipf      bool
	// Pipeline keeps N requests in flight per client (redis-benchmark -P;
	// default 1 = the paper's closed loop).
	Pipeline int

	// Cluster groups the horizontal-scale knobs (multi-master hash-slot
	// deployments). The zero value builds one replication group.
	Cluster ClusterOpts

	// SKV-specific knobs. SKV.ServeReadsFromNIC is derived from NicReads by
	// Build — setting it directly is a configuration error.
	SKV core.Config

	// NicReads is the one authoritative NIC-read-path setting (the design
	// §IV-A ablation). Build derives core.Config.ServeReadsFromNIC from it
	// and rejects inconsistent combinations.
	NicReads NicReadMode

	// Consistency groups the write-acknowledgment knobs. The zero value is
	// the async fire-and-forget default.
	Consistency ConsistencyOpts

	// Tracking enables CLIENT TRACKING on every workload client: clients
	// cache GET results locally and the deployment pushes invalidations on
	// writes (from the NIC fan-out path on SKV, from the merge stage on the
	// baselines).
	Tracking bool
}

// ClusterOpts groups Config's horizontal-scale knobs.
type ClusterOpts struct {
	// Masters scales the deployment out into a hash-slot cluster of that
	// many replication groups, each a full SKV unit (master host + SmartNIC
	// + its own slaves) owning an even, contiguous share of the 16384 slots
	// (slots.EvenSplit). 0 or 1 builds a single group with no slot plane.
	Masters int
	// SlavesPerMaster is each group's slave count when Masters > 1 (Slaves
	// then must stay 0).
	SlavesPerMaster int
}

// ConsistencyOpts groups Config's write-acknowledgment knobs.
type ConsistencyOpts struct {
	// Level is the deployment's default write acknowledgment level. Async —
	// the zero value — is the fire-and-forget default: the master
	// replies as soon as the write executes. Quorum withholds each write's
	// reply until Quorum slaves have replicated it; All waits for every
	// attached slave. On SKV the NIC enforces the quorum (the host CPU never
	// sees the wait); baselines park the reply on the master's consistency
	// tracker like WAIT. Per-command overrides ride SKV.CONSISTENCY. Build
	// derives core.Config.WriteConsistency from this field — setting
	// SKV.WriteConsistency directly is a configuration error.
	Level consistency.Level
	// Quorum is the slave-ack count a quorum write needs (only meaningful
	// with Level=Quorum; 0 defaults to 1).
	Quorum int
}

// NicReadMode selects how the cluster exercises the NIC read path.
type NicReadMode int

const (
	// NicReadsOff (the default) is the paper's design: all reads served by
	// the host, no shadow replica on the SmartNIC.
	NicReadsOff NicReadMode = iota
	// NicReadsServe enables the Nic-KV shadow replica and its client
	// listener, but the workload clients still target the master host —
	// used to compare the replica's keyspace against the master's.
	NicReadsServe
	// NicReadsClients additionally points the workload clients at the
	// SmartNIC endpoint, so reads are served by the ARM cores.
	NicReadsClients
)

func (m NicReadMode) String() string {
	switch m {
	case NicReadsOff:
		return "off"
	case NicReadsServe:
		return "serve"
	case NicReadsClients:
		return "clients"
	}
	return "?"
}

// Typed consistency-configuration errors, matchable with errors.Is: tooling
// that sweeps configurations (benches, chaos harnesses) can tell "this
// combination is meaningless" apart from other validation failures.
var (
	// ErrQuorumTooLarge: WriteQuorum asks for more slave acks than the
	// topology has slaves — no write could ever be acknowledged.
	ErrQuorumTooLarge = errors.New("write quorum exceeds the deployment's slave count")
	// ErrQuorumNoSlaves: quorum/all consistency on a slave-less topology —
	// there is nobody to ack.
	ErrQuorumNoSlaves = errors.New("quorum/all write consistency requires at least one slave")
	// ErrQuorumWithoutLevel: WriteQuorum set while the consistency level
	// isn't quorum (async never parks; all derives its need from the
	// replica count).
	ErrQuorumWithoutLevel = errors.New("WriteQuorum is only meaningful with WriteConsistency=quorum")
)

// Validate reports configuration errors Build would otherwise bake into a
// half-configured cluster.
func (cfg Config) Validate() error {
	if cfg.Slaves < 0 {
		return fmt.Errorf("cluster: Slaves=%d is invalid; a group has zero or more slaves", cfg.Slaves)
	}
	if cfg.NicReads != NicReadsOff && cfg.Kind != KindSKV {
		return fmt.Errorf("cluster: NicReads=%s requires Kind=KindSKV (got %s): only the SKV deployment has a SmartNIC to serve reads from", cfg.NicReads, cfg.Kind)
	}
	if cfg.SKV.ServeReadsFromNIC && cfg.NicReads == NicReadsOff {
		return fmt.Errorf("cluster: SKV.ServeReadsFromNIC is derived from Config.NicReads; set NicReads=NicReadsServe or NicReadsClients instead")
	}
	if cfg.Cluster.Masters > 1 {
		if cfg.Kind != KindSKV {
			return fmt.Errorf("cluster: Masters=%d requires Kind=KindSKV (got %s): only SKV groups carry the SmartNIC failover plane the slot map repairs through", cfg.Cluster.Masters, cfg.Kind)
		}
		if cfg.Slaves != 0 {
			return fmt.Errorf("cluster: Masters=%d conflicts with the single-group Slaves field (got %d); size groups with SlavesPerMaster instead", cfg.Cluster.Masters, cfg.Slaves)
		}
		if cfg.Cluster.SlavesPerMaster < 1 {
			return fmt.Errorf("cluster: Masters=%d requires SlavesPerMaster >= 1 (got %d): a group without slaves has no failover target", cfg.Cluster.Masters, cfg.Cluster.SlavesPerMaster)
		}
		if cfg.NicReads == NicReadsClients {
			return fmt.Errorf("cluster: NicReads=clients is not supported with Masters>1; slot-aware clients route to group hosts")
		}
	} else if cfg.Cluster.SlavesPerMaster != 0 {
		return fmt.Errorf("cluster: SlavesPerMaster=%d is only meaningful with Masters>1; use Slaves for a single group", cfg.Cluster.SlavesPerMaster)
	}
	if cfg.SKV.WriteConsistency != consistency.Async {
		return fmt.Errorf("cluster: SKV.WriteConsistency is derived from Config.Consistency.Level; set the cluster-level field instead")
	}
	replicas := cfg.slavesPerGroup()
	if cfg.Consistency.Level != consistency.Async && replicas == 0 {
		return fmt.Errorf("cluster: WriteConsistency=%s on a topology with no slaves: %w", cfg.Consistency.Level, ErrQuorumNoSlaves)
	}
	if cfg.Consistency.Quorum < 0 {
		return fmt.Errorf("cluster: WriteQuorum=%d is invalid; the quorum must be >= 1", cfg.Consistency.Quorum)
	}
	if cfg.Consistency.Quorum != 0 && cfg.Consistency.Level != consistency.Quorum {
		return fmt.Errorf("cluster: WriteQuorum=%d with WriteConsistency=%s: %w", cfg.Consistency.Quorum, cfg.Consistency.Level, ErrQuorumWithoutLevel)
	}
	if cfg.Consistency.Level == consistency.Quorum && cfg.Consistency.Quorum > replicas {
		return fmt.Errorf("cluster: WriteQuorum=%d but the topology has %d slaves per master: %w", cfg.Consistency.Quorum, replicas, ErrQuorumTooLarge)
	}
	return nil
}

// slavesPerGroup resolves each replication group's slave count.
func (cfg Config) slavesPerGroup() int {
	if cfg.Cluster.Masters > 1 {
		return cfg.Cluster.SlavesPerMaster
	}
	return cfg.Slaves
}

// Group is one replication group: a master host (with its SmartNIC offload
// on SKV) and its slaves. In a hash-slot cluster each group owns a share of
// the slot space; a single-group deployment owns all of it implicitly.
type Group struct {
	Index int

	Master      *server.Server
	Slaves      []*server.Server
	SlaveAgents []*core.SlaveAgent
	HostKV      *core.HostKV
	NicKV       *core.NicKV

	MasterMachine *fabric.Machine
	SlaveMachines []*fabric.Machine
}

// Cluster is a built deployment.
type Cluster struct {
	Cfg    Config
	Eng    *sim.Engine
	Net    *fabric.Network
	Params *model.Params

	// Groups holds every replication group (always at least one). SlotMap is
	// the deployment's authoritative hash-slot table, mutated by per-group
	// failover; nil unless Masters > 1.
	Groups  []*Group
	SlotMap *slots.Map

	// Master is Groups[0].Master and Slaves every group's slaves, concatenated.
	// They are the only node handles outside Groups, and only because the
	// frozen benchmark/simload.go reads them; address nodes through Groups.
	Master *server.Server
	Slaves []*server.Server

	// Clients is the workload: slot-aware closed-loop clients, a single
	// group being their one-group case.
	Clients []workload.KV

	clientsStarted bool
}

// Build constructs the deployment. Nothing runs until the engine does.
// Build panics on an invalid Config (see Config.Validate) — a half-built
// cluster would silently measure the wrong system.
func Build(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.SKV.ServeReadsFromNIC = cfg.NicReads != NicReadsOff
	cfg.SKV.WriteConsistency = cfg.Consistency.Level
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.KeySpace <= 0 {
		cfg.KeySpace = 10_000
	}
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = 64
	}
	p := cfg.Params
	if p == nil {
		def := model.Default()
		p = &def
	}
	eng := sim.New(cfg.Seed + 1)
	net := fabric.New(eng, p)
	c := &Cluster{Cfg: cfg, Eng: eng, Net: net, Params: p}

	makeStack := func(ep *fabric.Endpoint, proc *sim.Proc) transport.Stack {
		if cfg.Kind == KindTCP {
			return tcpsim.New(net, ep, proc)
		}
		return rconn.New(net, ep, proc)
	}
	serverWakeup := p.CompChannelWake
	if cfg.Kind == KindTCP {
		serverWakeup = p.TCPWakeup
	}

	newServer := func(name string, m *fabric.Machine, seed int64, route *server.ClusterRouting) *server.Server {
		coreRes := sim.NewCore(eng, name+"-core", p.HostCoreSpeed)
		proc := sim.NewProc(eng, coreRes, serverWakeup)
		stack := makeStack(m.Host, proc)
		srv := server.New(server.Options{
			Name:    name,
			Params:  p,
			Seed:    seed,
			Port:    core.ClientPort,
			Cluster: route,
			// Every node gets the consistency defaults — slaves too, since a
			// promoted slave must keep enforcing the deployment's level.
			WriteConsistency: cfg.Consistency.Level,
			WriteQuorum:      cfg.Consistency.Quorum,
		}, eng, stack, proc)
		if rs, okRDMA := stack.(*rconn.Stack); okRDMA {
			rs.Device().SetMetrics(srv.Metrics())
		}
		return srv
	}

	// A deployment is Masters replication groups (at least one). Cluster
	// mode — the shared slot map every server and client routes against,
	// g<i>.-prefixed node names and metric labels — is derived from
	// Masters > 1; a single group is the same loop with plain names, no slot
	// plane, and clients whose one group is the one master.
	masters := max(cfg.Cluster.Masters, 1)
	clustered := masters > 1
	nodeName := func(gi int, role string) string {
		if clustered {
			return fmt.Sprintf("g%d.%s", gi, role)
		}
		return role
	}
	hasNIC := cfg.Kind == KindSKV

	// Master machines first: the slot map's addresses are their host endpoint
	// names, and every server is born already routing against it.
	var addrs []string
	for gi := 0; gi < masters; gi++ {
		m := net.NewMachine(nodeName(gi, "master"), hasNIC)
		c.Groups = append(c.Groups, &Group{Index: gi, MasterMachine: m})
		addrs = append(addrs, m.Host.Name())
	}
	if clustered {
		slotMap, err := slots.NewMap(masters, nil, addrs)
		if err != nil {
			panic(fmt.Sprintf("cluster: slot map construction failed after validation: %v", err))
		}
		c.SlotMap = slotMap
	}

	// Group gi's seeds are offset by 1000*gi so groups draw independent but
	// reproducible randomness.
	for gi, g := range c.Groups {
		var route *server.ClusterRouting
		skvCfg := cfg.SKV
		if clustered {
			route = &server.ClusterRouting{Self: gi, Map: c.SlotMap, Port: core.ClientPort}
			skvCfg.Group = fmt.Sprintf("g%d", gi)
		}
		g.Master = newServer(nodeName(gi, "master"), g.MasterMachine, cfg.Seed+100+1000*int64(gi), route)
		if hasNIC {
			g.NicKV = core.NewNicKV(eng, net, g.MasterMachine, p, skvCfg)
			g.HostKV = core.AttachMaster(g.Master, net, g.MasterMachine.NIC, skvCfg)
		}

		for i := 0; i < cfg.slavesPerGroup(); i++ {
			sname := nodeName(gi, fmt.Sprintf("slave%d", i))
			m := net.NewMachine(sname, false)
			g.SlaveMachines = append(g.SlaveMachines, m)
			srv := newServer(sname, m, cfg.Seed+200+1000*int64(gi)+int64(i), route)
			g.Slaves = append(g.Slaves, srv)
			if hasNIC {
				// SLAVEOF through the SmartNIC (§III-C).
				g.SlaveAgents = append(g.SlaveAgents, core.AttachSlave(srv, net, g.MasterMachine.NIC, skvCfg))
			} else {
				target := g.MasterMachine.Host
				eng.At(0, func() { srv.SlaveOf(target, core.ClientPort) })
			}
			if clustered {
				// Per-slot failover: promotion moves the group's slots to this
				// slave's address (epoch bump → clients repair on MOVED or
				// reconnect); demotion on master recovery moves them back. This
				// models the converged gossip state, not per-node propagation.
				slaveAddr, masterAddr := m.Host.Name(), g.MasterMachine.Host.Name()
				srv.OnRoleChange = func(r server.Role) {
					if r == server.RoleMaster {
						c.SlotMap.SetAddr(gi, slaveAddr)
					} else {
						c.SlotMap.SetAddr(gi, masterAddr)
					}
				}
			}
		}

		c.Slaves = append(c.Slaves, g.Slaves...)
	}
	g0 := c.Groups[0]
	c.Master = g0.Master

	// Clients, one machine each (the load generator box is never the
	// bottleneck, as with redis-benchmark on its own server). Naming and
	// seeding do not depend on the group count: the load is a property of the
	// deployment. The seed address is fixed at build time: the first master's
	// host, or its SmartNIC endpoint when the workload exercises NIC-served
	// reads; c.SlotMap is nil for a single group.
	seed := g0.MasterMachine.Host
	if cfg.NicReads == NicReadsClients {
		seed = g0.MasterMachine.NIC
	}
	env := workload.Env{
		Eng: eng, Params: p, MakeStack: makeStack, Wakeup: p.ClientWakeup,
		Port: core.ClientPort, Resolve: c.resolveEP, Table: c.SlotMap,
	}
	if hasNIC && cfg.Tracking && !clustered && cfg.NicReads != NicReadsClients {
		// Redirect mode: the server forwards tracked interest to its NIC
		// and the NIC pushes invalidations out-of-band to the subscriber.
		env.Invalidation = g0.MasterMachine.NIC
		env.InvalidationPort = core.NicPort
	}
	opts := workload.Options{Addr: seed.Name(), Pipeline: cfg.Pipeline, Tracking: cfg.Tracking}
	for i := 0; i < cfg.Clients; i++ {
		m := net.NewMachine(fmt.Sprintf("client%d", i), false)
		env := env
		env.EP = m.Host
		env.Gen = workload.NewGenerator(cfg.Seed+300+int64(i), cfg.KeySpace, cfg.ValueSize, 1.0-cfg.GetRatio, cfg.Zipf)
		c.Clients = append(c.Clients, workload.New(fmt.Sprintf("client%d", i), env, opts))
	}
	return c
}

// resolveEP maps a server address (an endpoint name) to its endpoint, for
// the clients and control processes that dial nodes by name.
func (c *Cluster) resolveEP(addr string) *fabric.Endpoint {
	ep := c.Net.EndpointByName(addr)
	if ep == nil {
		panic(fmt.Sprintf("cluster: address %q resolves to no endpoint", addr))
	}
	return ep
}

// AwaitReplication runs the simulation until every slave reaches the
// steady-state replication phase, or the timeout elapses. Returns success.
func (c *Cluster) AwaitReplication(timeout sim.Duration) bool {
	deadline := c.Eng.Now().Add(timeout)
	for c.Eng.Now() < deadline {
		if c.replicationReady() {
			return true
		}
		c.Eng.Run(c.Eng.Now().Add(sim.Millisecond))
	}
	return c.replicationReady()
}

func (c *Cluster) replicationReady() bool {
	for _, g := range c.Groups {
		for _, s := range g.Slaves {
			if !s.SyncedWithMaster() {
				return false
			}
		}
	}
	return true
}

// StartClients starts every client; their closed loops begin as soon as
// each dial completes.
func (c *Cluster) StartClients() {
	if c.clientsStarted {
		return
	}
	c.clientsStarted = true
	for _, cl := range c.Clients {
		cl.Start()
	}
}

// Result summarizes one measured run.
type Result struct {
	System     string
	Clients    int
	Slaves     int
	ValueSize  int
	Throughput float64 // operations per second
	Avg        sim.Duration
	P50        sim.Duration
	P99        sim.Duration
	Ops        uint64
	ErrReplies uint64
	// MasterUtil, ShardUtils, RouteUtils and NicUtil are group 0's alone
	// (GroupOps says how the load split across groups).
	// MasterUtil is the master dispatch core's busy fraction over the window.
	MasterUtil float64
	// ShardUtils is each master shard core's busy fraction (HostShards > 1).
	ShardUtils []float64
	// RouteUtils is each master routing core's busy fraction
	// (RouteListeners > 1).
	RouteUtils []float64
	// NicUtil is Nic-KV's main ARM core busy fraction (SKV only).
	NicUtil float64
	// GroupOps is the per-group operation count over the measure window —
	// the slot-load balance across groups.
	GroupOps []uint64
	// Moved counts MOVED redirects clients absorbed over the whole run
	// (Masters > 1 only).
	Moved uint64
}

func (r Result) String() string {
	return fmt.Sprintf("%-11s clients=%-3d slaves=%d val=%-5d  tput=%8.1f kops/s  avg=%7.1fµs  p50=%7.1fµs  p99=%7.1fµs",
		r.System, r.Clients, r.Slaves, r.ValueSize,
		r.Throughput/1000, r.Avg.Micros(), r.P50.Micros(), r.P99.Micros())
}

// Measure starts the clients (if not yet), lets the system warm up, then
// measures for the given duration and aggregates client-side statistics —
// the redis-benchmark protocol.
func (c *Cluster) Measure(warmup, duration sim.Duration) Result {
	c.StartClients()
	start := c.Eng.Now().Add(warmup)
	for _, cl := range c.Clients {
		cl.SetWarmup(start)
	}
	end := start.Add(duration)
	// Utilization is reported over the measure window — the same window
	// throughput and latency are measured over — so handshake, sync, and
	// warmup CPU don't pollute the busy fraction. Run to the window start,
	// snapshot each core's busy-time accumulator, then run the window.
	c.Eng.Run(start)
	g0 := c.Groups[0]
	masterBusy := g0.Master.Proc().Core.BusyTime()
	var shardBusy, routeBusy []sim.Duration
	for _, sp := range g0.Master.ShardProcs() {
		shardBusy = append(shardBusy, sp.Core.BusyTime())
	}
	for _, rp := range g0.Master.RouteProcs() {
		routeBusy = append(routeBusy, rp.Core.BusyTime())
	}
	var nicBusy sim.Duration
	if g0.NicKV != nil {
		nicBusy = g0.NicKV.Proc().Core.BusyTime()
	}
	groupStart := c.groupDone()
	c.Eng.Run(end)
	windowUtil := func(before sim.Duration, core *sim.Core) float64 {
		u := float64(core.BusyTime()-before) / float64(duration)
		if u > 1 {
			u = 1
		}
		return u
	}

	agg := stats.NewHistogram()
	var errs, moved uint64
	for _, cl := range c.Clients {
		agg.Merge(cl.Histogram())
		st := cl.Stats()
		errs += st.ErrReplies
		moved += st.Moved
	}
	res := Result{
		System:     c.Cfg.Kind.String(),
		Clients:    len(c.Clients),
		Slaves:     len(c.Slaves),
		Moved:      moved,
		ValueSize:  c.Cfg.ValueSize,
		Throughput: float64(agg.Count()) / duration.Seconds(),
		Avg:        agg.Mean(),
		P50:        agg.Percentile(50),
		P99:        agg.Percentile(99),
		Ops:        agg.Count(),
		ErrReplies: errs,
		MasterUtil: windowUtil(masterBusy, g0.Master.Proc().Core),
	}
	for i, sp := range g0.Master.ShardProcs() {
		res.ShardUtils = append(res.ShardUtils, windowUtil(shardBusy[i], sp.Core))
	}
	for i, rp := range g0.Master.RouteProcs() {
		res.RouteUtils = append(res.RouteUtils, windowUtil(routeBusy[i], rp.Core))
	}
	if g0.NicKV != nil {
		res.NicUtil = windowUtil(nicBusy, g0.NicKV.Proc().Core)
	}
	res.GroupOps = c.groupDone()
	for g := range res.GroupOps {
		res.GroupOps[g] -= groupStart[g]
	}
	return res
}

// groupDone sums the clients' completions per group.
func (c *Cluster) groupDone() []uint64 {
	done := make([]uint64, len(c.Groups))
	for _, cl := range c.Clients {
		for g, n := range cl.Stats().GroupDone {
			done[g] += n
		}
	}
	return done
}

// Run advances the simulation to the given horizon (helper for scenario
// scripts like the availability experiment).
func (c *Cluster) Run(until sim.Time) { c.Eng.Run(until) }

// Snapshots collects the metrics snapshot of every registry in the cluster
// — the fabric and, per group, the master, each slave, and (SKV) the NIC —
// ordered by node name so two identical runs render byte-identically.
func (c *Cluster) Snapshots() []metrics.Snapshot {
	snaps := []metrics.Snapshot{c.Net.Metrics().Snapshot()}
	addServer := func(s *server.Server) {
		snaps = append(snaps, s.Metrics().Snapshot())
		for _, reg := range s.ShardRegistries() {
			snaps = append(snaps, reg.Snapshot())
		}
		for _, reg := range s.RouteRegistries() {
			snaps = append(snaps, reg.Snapshot())
		}
	}
	for _, g := range c.Groups {
		addServer(g.Master)
		for _, s := range g.Slaves {
			addServer(s)
		}
		if g.NicKV != nil {
			snaps = append(snaps, g.NicKV.Metrics().Snapshot())
		}
	}
	sort.SliceStable(snaps, func(i, j int) bool { return snaps[i].Node < snaps[j].Node })
	return snaps
}

// SnapshotsString renders all cluster snapshots as one deterministic text
// block (test oracle: two identical sim runs must produce identical output).
func (c *Cluster) SnapshotsString() string {
	var b strings.Builder
	for _, s := range c.Snapshots() {
		b.WriteString(s.String())
	}
	return b.String()
}
