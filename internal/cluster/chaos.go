// Chaos harness: scripted failure scenarios driven through the fabric fault
// plane (internal/fabric: partitions, loss, flapping endpoints) and the
// process crash/restart helpers below, with a deterministic timestamped
// trace. A scenario ends with its Check — CheckConvergence unless it brings
// one — which asserts the SKV invariants §III-D is supposed to restore after
// any failure: exactly one master, no leftover promotion, every alive slave
// valid, synced, and at the master's replication offset.
package cluster

import (
	"fmt"
	"strings"

	"skv/internal/consistency"
	"skv/internal/core"
	"skv/internal/fabric"
	"skv/internal/model"
	"skv/internal/server"
	"skv/internal/sim"
)

// TraceEntry is one recorded chaos event with a state snapshot taken right
// after it ran. Two runs of the same scenario with the same seed must
// produce identical traces (the harness's determinism contract).
type TraceEntry struct {
	At    sim.Time
	Label string
	State string
}

func (e TraceEntry) String() string {
	return fmt.Sprintf("%10.3fms  %-24s %s",
		float64(e.At)/float64(sim.Millisecond), e.Label, e.State)
}

// Load is anything RunScenario starts once the script has run and stops when
// the scripted horizon ends: a workload client, a ledger writer, a sampler.
type Load interface {
	Start()
	Stop()
}

// Chaos schedules scripted failures over a built cluster and records the
// trace. All At offsets are relative to the moment NewChaos was called
// (normally: right after initial replication completed).
type Chaos struct {
	C     *Cluster
	Trace []TraceEntry
	// Load is what runs over the scripted horizon, started in order: the
	// workload clients, then whatever the script appends. A script that
	// brings its own load replaces the slice, and the clients stay idle.
	Load []Load
	base sim.Time
}

// NewChaos wraps a built cluster for scenario scripting.
func NewChaos(c *Cluster) *Chaos {
	h := &Chaos{C: c, base: c.Eng.Now()}
	for _, cl := range c.Clients {
		h.Load = append(h.Load, cl)
	}
	return h
}

// Note appends a trace entry with the current state, without an action.
func (h *Chaos) Note(label string) {
	h.Trace = append(h.Trace, TraceEntry{At: h.C.Eng.Now(), Label: label, State: h.snapshot()})
}

// At schedules do at base+d and records it in the trace when it runs.
func (h *Chaos) At(d sim.Duration, label string, do func(c *Cluster)) {
	h.C.Eng.At(h.base.Add(d), func() {
		if do != nil {
			do(h.C)
		}
		h.Note(label)
	})
}

// TraceString renders the whole trace, one entry per line.
func (h *Chaos) TraceString() string {
	var b strings.Builder
	for _, e := range h.Trace {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// snapshot captures the failure-detector and replication state in one line:
// master validity, promotion, valid-slave count, failover/restore counters,
// roles (M=master role, s=slave role, x=crashed), and offsets — one such
// block per group (g0{...} g1{...}), plus the slot map's epoch and current
// owner addresses on a hash-slot cluster.
func (h *Chaos) snapshot() string {
	c := h.C
	var b strings.Builder
	for gi, g := range c.Groups {
		if gi > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "g%d{%s}", gi, groupSnapshot(g))
	}
	if c.SlotMap != nil {
		fmt.Fprintf(&b, " ep=%d owners=[", c.SlotMap.Epoch())
		for gi := 0; gi < c.SlotMap.Groups(); gi++ {
			if gi > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(c.SlotMap.Addr(gi))
		}
		b.WriteByte(']')
	}
	return b.String()
}

// groupSnapshot renders one replication group's state.
func groupSnapshot(g *Group) string {
	master, slaves, agents, nickv := g.Master, g.Slaves, g.SlaveAgents, g.NicKV
	var b strings.Builder
	if nickv != nil {
		fmt.Fprintf(&b, "mv=%t prom=%q vs=%d fo=%d rst=%d ",
			nickv.MasterValid(), nickv.PromotedID(), nickv.ValidSlaves(),
			nickv.Failovers, nickv.MasterRestores)
	}
	role := func(s *server.Server) byte {
		if !s.Alive() {
			return 'x'
		}
		if s.Role() == server.RoleMaster {
			return 'M'
		}
		return 's'
	}
	roles := []byte{role(master)}
	for _, s := range slaves {
		roles = append(roles, role(s))
	}
	fmt.Fprintf(&b, "roles=%s moff=%d", roles, master.ReplOffset())
	if len(agents) > 0 {
		b.WriteString(" offs=[")
		for i, a := range agents {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", a.Offset())
			if !a.Synced() {
				b.WriteByte('*') // not in steady state
			}
		}
		b.WriteByte(']')
	}
	return b.String()
}

// ---- scheduling helpers -------------------------------------------------
//
// Every fault names the group it acts on, and a slave by its index within that
// group. Trace labels carry the group only when there is more than one.

func (h *Chaos) label(verb string, g int, node string, a ...any) string {
	if len(h.C.Groups) > 1 {
		verb = fmt.Sprintf("%s g%d", verb, g)
	}
	return verb + " " + fmt.Sprintf(node, a...)
}

// CrashMaster wedges group g's master process at base+d (endpoints stay up;
// peers observe silence — the failure mode §III-D's probes detect).
func (h *Chaos) CrashMaster(d sim.Duration, g int) {
	h.At(d, h.label("crash", g, "master"), func(c *Cluster) { c.Groups[g].Master.Crash() })
}

// RestartMaster restarts group g's master process at base+d: its old
// connections die with it and Host-KV re-dials Nic-KV with a fresh master
// hello.
func (h *Chaos) RestartMaster(d sim.Duration, g int) {
	h.At(d, h.label("restart", g, "master"), func(c *Cluster) { c.Groups[g].RestartMaster() })
}

// CrashSlave wedges the process of group g's slave i at base+d.
func (h *Chaos) CrashSlave(d sim.Duration, g, i int) {
	h.At(d, h.label("crash", g, "slave%d", i), func(c *Cluster) { c.Groups[g].Slaves[i].Crash() })
}

// RecoverSlave restarts the process of group g's slave i at base+d and
// resynchronizes.
func (h *Chaos) RecoverSlave(d sim.Duration, g, i int) {
	h.At(d, h.label("recover", g, "slave%d", i), func(c *Cluster) { c.Groups[g].RecoverSlave(i) })
}

// PartitionNicSlave cuts both directions between the host of group g's slave
// i and the group's SmartNIC at base+d.
func (h *Chaos) PartitionNicSlave(d sim.Duration, g, i int) {
	h.At(d, h.label("partition", g, "nic<->slave%d", i), func(c *Cluster) {
		c.Net.Faults().PartitionBoth(c.Groups[g].slaveLink(i))
	})
}

// HealNicSlave heals both directions between the host of group g's slave i
// and the group's SmartNIC at base+d; parked traffic flushes in order.
func (h *Chaos) HealNicSlave(d sim.Duration, g, i int) {
	h.At(d, h.label("heal", g, "nic<->slave%d", i), func(c *Cluster) {
		c.Net.Faults().HealBoth(c.Groups[g].slaveLink(i))
	})
}

// FlapSlave starts down/up cycles of the host endpoint of group g's slave i
// at base+d.
func (h *Chaos) FlapSlave(d sim.Duration, g, i int, downFor, upFor sim.Duration, cycles int) {
	h.At(d, h.label("flap", g, "slave%d", i), func(c *Cluster) {
		c.Net.Faults().FlapEndpoint(c.Groups[g].SlaveMachines[i].Host, downFor, upFor, cycles)
	})
}

// ---- group-level crash/restart helpers ----------------------------------

// slaveLink is the two ends of the link slave i's replication traffic
// crosses: the group's SmartNIC and the slave's own host.
func (g *Group) slaveLink(i int) (nic, host *fabric.Endpoint) {
	return g.MasterMachine.NIC, g.SlaveMachines[i].Host
}

// RecoverSlave restarts a crashed slave process. For SKV the agent forces a
// fresh synchronization (Fig 14's recovered node re-replicating from its
// offset); for the baselines Server.Recover re-runs SLAVEOF itself.
func (g *Group) RecoverSlave(i int) {
	g.Slaves[i].Recover()
	if i < len(g.SlaveAgents) {
		g.SlaveAgents[i].Resync()
	}
}

// RestartMaster models a full master process restart, as opposed to
// Server.Recover alone (which models an un-wedged process whose connections
// survived): the dead process's Nic-KV control and payload connections are
// severed, the server restarts, and Host-KV re-announces itself to Nic-KV
// on a brand-new connection (msgMasterHello). This is the §III-D restore
// path — and the one that used to split-brain when a slave was promoted.
func (g *Group) RestartMaster() {
	if g.HostKV != nil {
		g.HostKV.SeverConnections()
	}
	g.Master.Recover()
	if g.HostKV != nil {
		g.HostKV.ReconnectNic()
	}
}

// CheckConvergence verifies the deployment settled back into the healthy
// SKV steady state. It returns nil when every invariant holds, or an error
// listing each violation. Every replication group is checked independently,
// its violations prefixed with the group (g0: ...).
func (c *Cluster) CheckConvergence() error {
	var errs []string
	for gi, g := range c.Groups {
		for _, e := range checkGroupConvergence(g) {
			errs = append(errs, fmt.Sprintf("g%d: %s", gi, e))
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("not converged: %s", strings.Join(errs, "; "))
}

// checkGroupConvergence verifies one replication group's §III-D invariants:
// exactly one master, no leftover promotion, every alive slave valid,
// synced, at the master's offset, and holding the master's keyspace.
func checkGroupConvergence(g *Group) []string {
	master, slaves, agents, nickv := g.Master, g.Slaves, g.SlaveAgents, g.NicKV
	var errs []string
	add := func(format string, a ...any) { errs = append(errs, fmt.Sprintf(format, a...)) }

	masters := 0
	if master.Alive() && master.Role() == server.RoleMaster {
		masters++
	}
	for i, s := range slaves {
		if s.Alive() && s.Role() == server.RoleMaster {
			masters++
			add("slave%d is still in the master role", i)
		}
	}
	if masters != 1 {
		add("%d alive masters, want exactly 1", masters)
	}

	if nickv != nil {
		if !nickv.MasterValid() {
			add("Nic-KV considers the master invalid")
		}
		if p := nickv.PromotedID(); p != "" {
			add("Nic-KV still has %q promoted", p)
		}
		alive := 0
		for _, s := range slaves {
			if s.Alive() {
				alive++
			}
		}
		if v := nickv.ValidSlaves(); v != alive {
			add("Nic-KV sees %d valid slaves, want %d", v, alive)
		}
	}

	off := master.ReplOffset()
	for i, a := range agents {
		if !slaves[i].Alive() {
			continue
		}
		if !a.Synced() {
			add("slave%d is not in steady state", i)
			continue
		}
		if a.Offset() != off {
			add("slave%d offset %d != master offset %d", i, a.Offset(), off)
		}
	}

	want := master.Store().DBSize(0)
	for i, s := range slaves {
		if !s.Alive() {
			continue
		}
		if got := s.Store().DBSize(0); got != want {
			add("slave%d holds %d keys, master holds %d", i, got, want)
		}
	}
	return errs
}

// ---- scenarios ----------------------------------------------------------

// Scenario is one scripted failure sequence over a fresh deployment: any
// cluster.Config, so a scenario says Masters, Consistency or Pipeline the
// way it says Slaves. The chaos timescales ride in Config.Params (see
// ChaosParams); re-running a scenario sharded, batched or routed is a write
// to s.Config.Params before RunScenario.
type Scenario struct {
	Name   string
	Config Config
	// Script runs once replication is ready, before the load starts: it
	// schedules the faults (h.At and the helpers above) and may append to or
	// replace h.Load.
	Script func(h *Chaos)
	// RunFor is the scripted horizon under load; Settle is the quiet period
	// after load stops, before the check.
	RunFor sim.Duration
	Settle sim.Duration
	// Check is the scenario's end-state audit; nil means CheckConvergence.
	Check func(h *Chaos) error
}

// ChaosParams compresses the failure-detection timescales (probe every
// 100ms, waiting-time 200ms — the cluster tests' fast profile) and installs
// the retry budget: the RC/TCP retransmission timeout before a connection
// errors out. 0 means 10s — links park traffic but never die (pure
// probe-timeout scenarios); short values force connection teardown and
// re-establishment (flap scenarios).
func ChaosParams(retry sim.Duration) *model.Params {
	p := model.Default()
	p.ProbePeriod = 100 * sim.Millisecond
	p.WaitingTime = 200 * sim.Millisecond
	if retry <= 0 {
		retry = 10 * sim.Second
	}
	p.RetryTimeout = retry
	return &p
}

// chaosConfig is the canned scenarios' deployment — one SKV group of three
// slaves under one pure-SET client, on the chaos timescales — and the base
// the other scenarios edit.
func chaosConfig(seed int64, retry sim.Duration) Config {
	return Config{
		Kind: KindSKV, Slaves: 3, Clients: 1, Seed: seed,
		Params: ChaosParams(retry),
		SKV:    core.Config{ProgressInterval: 50 * sim.Millisecond},
	}
}

// RunScenario is the one scenario runner: it builds the scenario's
// deployment, waits up to 2s for initial replication, runs the script,
// starts the load, runs the scripted horizon, stops the load, settles, and
// checks. The returned Chaos always holds a printable trace; on a failed
// initial replication its last entry says so.
func RunScenario(s Scenario) (*Cluster, *Chaos, error) {
	c := Build(s.Config)
	synced := c.AwaitReplication(2 * sim.Second)
	h := NewChaos(c)
	if !synced {
		h.Note("replication failed")
		return c, h, fmt.Errorf("%s: initial replication did not complete", s.Name)
	}
	h.Note("replication ready")
	if s.Script != nil {
		s.Script(h)
	}
	for _, l := range h.Load {
		l.Start()
	}
	c.Eng.RunFor(s.RunFor)
	for _, l := range h.Load {
		l.Stop()
	}
	h.Note("load stopped")
	c.Eng.RunFor(s.Settle)
	h.Note("settled")
	if s.Check != nil {
		return c, h, s.Check(h)
	}
	return c, h, c.CheckConvergence()
}

// AllScenarios returns every scenario the harness knows, each at its pinned
// seed: the canned five, per-slot failover, reshard under load, and the
// ack-loss probe at async and quorum.
func AllScenarios() []Scenario {
	psf, _ := PerSlotFailoverScenario(7)
	rsh, _ := ReshardScenario(42, false)
	async, _ := AckLossScenario(AckLossSpec{Level: consistency.Async, Seed: 7})
	quorum, _ := AckLossScenario(AckLossSpec{Level: consistency.Quorum, W: 2, Seed: 7})
	return append(ChaosScenarios(), psf, rsh, async, quorum)
}

// ChaosScenarios returns the canned single-group failure scenarios. Each
// exercises a different §III-D path.
func ChaosScenarios() []Scenario {
	return []Scenario{
		// Master crash → probe timeout → failover; then a full master
		// restart: the recovered master reappears on a new connection and
		// the promoted slave must be demoted (the split-brain fix).
		{
			Name: "master-restart-split-brain", Config: chaosConfig(7, 0),
			RunFor: 2 * sim.Second, Settle: 1500 * sim.Millisecond,
			Script: func(h *Chaos) {
				h.CrashMaster(200*sim.Millisecond, 0)
				h.RestartMaster(900*sim.Millisecond, 0)
			},
		},
		// Slave process crash → invalid flag → recovery → resync across the
		// missed stream (Fig 14's recovered-node path).
		{
			Name: "slave-crash-recover", Config: chaosConfig(11, 0),
			RunFor: 2 * sim.Second, Settle: 1 * sim.Second,
			Script: func(h *Chaos) {
				h.CrashSlave(200*sim.Millisecond, 0, 1)
				h.RecoverSlave(900*sim.Millisecond, 0, 1)
			},
		},
		// Slave endpoint flaps: each down window outlasts both the
		// waiting-time (→ invalid) and the retry budget (→ connections
		// error out), so recovery exercises full re-dial + resync.
		{
			Name: "slave-flap-resync", Config: chaosConfig(13, 150*sim.Millisecond),
			RunFor: 2500 * sim.Millisecond, Settle: 2 * sim.Second,
			Script: func(h *Chaos) {
				h.FlapSlave(200*sim.Millisecond, 0, 1, 400*sim.Millisecond, 600*sim.Millisecond, 2)
			},
		},
		// NIC↔slave partition shorter than the retry budget: connections
		// survive, probes time out (invalid), the heal flushes parked
		// traffic in order and the probe-ack revalidates the slave.
		{
			Name: "nic-partition-probe-timeout", Config: chaosConfig(17, 0),
			RunFor: 2 * sim.Second, Settle: 1500 * sim.Millisecond,
			Script: func(h *Chaos) {
				h.PartitionNicSlave(300*sim.Millisecond, 0, 2)
				h.HealNicSlave(1100*sim.Millisecond, 0, 2)
			},
		},
		// Lossy, spiky links under load: retransmission delay only — the
		// failure detector must NOT trip (no failovers), and replication
		// still converges.
		{
			Name: "lossy-links-under-load", Config: chaosConfig(23, 0),
			RunFor: 1500 * sim.Millisecond, Settle: 1 * sim.Second,
			Script: func(h *Chaos) {
				h.At(100*sim.Millisecond, "loss 5% on slave links", func(c *Cluster) {
					f := c.Net.Faults()
					for _, g := range c.Groups {
						for i := range g.Slaves {
							nic, host := g.slaveLink(i)
							f.SetLossBoth(nic, host, 0.05, 200*sim.Microsecond)
							f.SetDelay(nic, host, 0, 0.02, 1*sim.Millisecond)
						}
					}
				})
				h.At(1200*sim.Millisecond, "links clean again", func(c *Cluster) {
					f := c.Net.Faults()
					for _, g := range c.Groups {
						for i := range g.Slaves {
							nic, host := g.slaveLink(i)
							f.Clear(nic, host)
							f.Clear(host, nic)
						}
					}
				})
			},
		},
	}
}
