package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"skv/internal/core"
	"skv/internal/model"
	"skv/internal/rconn"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/transport"
)

// scenarioTable is every scenario the harness knows plus the re-runs whose
// determinism it also owes: the hardest canned scenario sharded, routed and
// tracked, a batched resync, and the tracked reshard.
func scenarioTable() []Scenario {
	rows := AllScenarios()
	rerun := func(i int, suffix string, edit func(p *model.Params)) {
		s := ChaosScenarios()[i]
		s.Name += suffix
		edit(s.Config.Params)
		rows = append(rows, s)
	}
	rerun(0, "-shards4", func(p *model.Params) { p.HostShards = 4 })
	rerun(0, "-shards4-listeners2", func(p *model.Params) { p.HostShards, p.RouteListeners = 4, 2 })
	rerun(1, "-batch4", func(p *model.Params) { p.ReplBatchMaxCmds = 4 })
	tracked := trackedScenario(ChaosScenarios()[0])
	tracked.Name += "-tracked"
	reshard, _ := ReshardScenario(7, true)
	reshard.Name += "-tracked"
	return append(rows, tracked, reshard)
}

// TestChaosScenarios runs every row of the table twice: the first run must
// pass its check (and satisfy per-scenario expectations), and the second
// must reproduce it byte for byte — the harness's determinism contract
// (same seed → same event sequence), which the observability plane and the
// clients' counters and caches obey too. Every run owns its cluster and
// engine, so the rows run in parallel.
func TestChaosScenarios(t *testing.T) {
	for _, s := range scenarioTable() {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			c, h, err := RunScenario(s)
			if err != nil {
				t.Fatalf("check failed:\n%v\ntrace:\n%s", err, h.TraceString())
			}
			checkScenarioExpectations(t, s.Name, c, h)

			c2, h2, err := RunScenario(s)
			if err != nil {
				t.Fatalf("second run diverged in outcome: %v", err)
			}
			if d1, d2 := scenarioDigest(c, h), scenarioDigest(c2, h2); d1 != d2 {
				t.Fatalf("not deterministic across identical runs:\n--- run1:\n%s--- run2:\n%s", d1, d2)
			}
		})
	}
}

// scenarioDigest renders everything a run produced — the chaos trace, every
// metric snapshot, each group's failover timeline, and each client's
// counters and sorted cache contents — for byte-identical rerun comparisons.
func scenarioDigest(c *Cluster, h *Chaos) string {
	var b strings.Builder
	b.WriteString(h.TraceString())
	b.WriteString(c.SnapshotsString())
	for _, g := range c.Groups {
		b.WriteString(g.NicKV.Timeline().String())
	}
	for _, cl := range c.Clients {
		st := cl.Stats()
		fmt.Fprintf(&b, "%s sent=%d done=%d err=%d hits=%d miss=%d inv=%d flush=%d\n",
			cl.Name(), st.Sent, st.Done, st.ErrReplies, st.Hits, st.Misses,
			st.Invalidations, st.Flushes)
		ents := cl.CacheEntries()
		keys := make([]string, 0, len(ents))
		for k := range ents {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s=%s\n", k, ents[k])
		}
	}
	return b.String()
}

// TestScenarioSyncFailureKeepsTrace: a scenario whose initial replication
// cannot finish inside the sync budget must come back with its error and a
// printable trace that ends in the failure — not a nil *Chaos for the caller
// to dereference while reporting.
func TestScenarioSyncFailureKeepsTrace(t *testing.T) {
	s := ChaosScenarios()[1]
	s.Config.Params.ForkCPU = 4 * sim.Second
	_, h, err := RunScenario(s)
	if err == nil {
		t.Fatal("a fork longer than the sync budget still synchronized")
	}
	if last := h.Trace[len(h.Trace)-1]; last.Label != "replication failed" {
		t.Fatalf("trace does not end with the failure note:\n%s", h.TraceString())
	}
}

// TestFaultHelpersHitTheirGroupOnly: on a 2×2 deployment every group-addressed
// fault helper, aimed at group 1, must show in g1's snapshot mid-fault and
// leave g0's as it was — same validity, same slave count, no failover, same
// roles, every slave in steady state — and both groups converge once the
// fault is undone (the default check). The partition row is the old flat-index
// bug: group 1's slave cut from group 0's SmartNIC instead of its own. The
// master row audits g1 by its snapshot instead: on a hash-slot cluster the
// promoted slave takes routed writes a restarted master never pulls back
// (ROADMAP item 2(f)), so g1's keyspaces differ; roles, validity, restore
// count and offsets must still be the healthy ones.
func TestFaultHelpersHitTheirGroupOnly(t *testing.T) {
	const ms = sim.Millisecond
	for _, row := range []struct {
		name   string
		retry  sim.Duration
		script func(h *Chaos)
		midAt  sim.Duration
		g1     string // what g1's snapshot must show mid-fault
		g1End  string // "" = the default convergence check covers g1 too
	}{
		{"crash-restart-master", 0, func(h *Chaos) {
			h.CrashMaster(200*ms, 1)
			h.RestartMaster(900*ms, 1)
		}, 700 * ms, `g1{mv=false prom="g1.slave`, `mv=true prom="" vs=2 fo=1 rst=1 roles=Mss `},
		{"crash-recover-slave", 0, func(h *Chaos) {
			h.CrashSlave(200*ms, 1, 1)
			h.RecoverSlave(900*ms, 1, 1)
		}, 700 * ms, `g1{mv=true prom="" vs=1 fo=0 rst=0 roles=Msx `, ""},
		{"partition-heal", 0, func(h *Chaos) {
			h.PartitionNicSlave(300*ms, 1, 1)
			h.HealNicSlave(1100*ms, 1, 1)
		}, 1000 * ms, `g1{mv=true prom="" vs=1 fo=0 rst=0 roles=Mss `, ""},
		{"flap", 150 * ms, func(h *Chaos) {
			h.FlapSlave(200*ms, 1, 1, 400*ms, 600*ms, 1)
		}, 590 * ms, `g1{mv=true prom="" vs=1 fo=0 rst=0 roles=Mss `, ""},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := chaosConfig(29, row.retry)
			cfg.Slaves, cfg.Cluster = 0, ClusterOpts{Masters: 2, SlavesPerMaster: 2}
			s := Scenario{
				Name: row.name, Config: cfg, RunFor: 2 * sim.Second, Settle: 1500 * ms,
				Script: func(h *Chaos) {
					row.script(h)
					h.At(row.midAt, "mid-fault", nil)
				},
			}
			if row.g1End != "" {
				s.Check = func(h *Chaos) error {
					g0, g1 := checkGroupConvergence(h.C.Groups[0]), groupSnapshot(h.C.Groups[1])
					if len(g0) > 0 || !strings.HasPrefix(g1, row.g1End) || strings.Contains(g1, "*") {
						return fmt.Errorf("g0: %v; g1{%s}, want %s", g0, g1, row.g1End)
					}
					return nil
				}
			}
			_, h, err := RunScenario(s)
			if err != nil {
				t.Fatalf("not converged once the fault was undone:\n%v\ntrace:\n%s", err, h.TraceString())
			}
			for _, e := range h.Trace {
				if e.Label != "mid-fault" {
					continue
				}
				g0, _, _ := strings.Cut(e.State, "} ")
				if !strings.HasPrefix(g0, `g0{mv=true prom="" vs=2 fo=0 rst=0 roles=Mss `) || strings.Contains(g0, "*") {
					t.Errorf("group 0 felt a fault aimed at group 1:\n%s", e)
				}
				if !strings.Contains(e.State, row.g1) {
					t.Errorf("group 1 does not show the fault, want %s:\n%s", row.g1, e)
				}
				return
			}
			t.Fatalf("no mid-fault entry in the trace:\n%s", h.TraceString())
		})
	}
}

// checkScenarioExpectations asserts the failure path each scenario is meant
// to exercise actually fired (convergence alone could hide a no-op script).
func checkScenarioExpectations(t *testing.T, name string, c *Cluster, h *Chaos) {
	t.Helper()
	g := c.Groups[0]
	switch name {
	case "master-restart-split-brain":
		if g.NicKV.Failovers == 0 {
			t.Error("master crash never triggered a failover")
		}
		if g.NicKV.MasterRestores == 0 {
			t.Error("master restart never triggered a restore")
		}
		if g.SlaveAgents[0].Promoted.Value()+g.SlaveAgents[1].Promoted.Value()+g.SlaveAgents[2].Promoted.Value() == 0 {
			t.Error("no slave was promoted")
		}
		if g.SlaveAgents[0].Demoted.Value()+g.SlaveAgents[1].Demoted.Value()+g.SlaveAgents[2].Demoted.Value() == 0 {
			t.Error("no slave was demoted after the master returned")
		}
	case "slave-crash-recover":
		if g.SlaveAgents[1].Resyncs.Value() == 0 {
			t.Error("recovered slave never resynchronized")
		}
		if g.NicKV.Failovers != 0 {
			t.Errorf("slave crash caused %d failovers", g.NicKV.Failovers)
		}
	case "slave-flap-resync":
		if g.SlaveAgents[1].Resyncs.Value() == 0 {
			t.Error("flapped slave never resynchronized")
		}
		if c.Net.Parked.Value() == 0 {
			t.Error("flap parked no traffic")
		}
	case "nic-partition-probe-timeout":
		if c.Net.Parked.Value() == 0 {
			t.Error("partition parked no traffic")
		}
		if g.NicKV.Failovers != 0 {
			t.Errorf("slave-side partition caused %d failovers", g.NicKV.Failovers)
		}
		sawInvalid := false
		for _, e := range h.Trace {
			if e.Label == "heal nic<->slave2" {
				sawInvalid = true
			}
		}
		if !sawInvalid {
			t.Error("heal event missing from trace")
		}
	case "lossy-links-under-load":
		if c.Net.Retransmits.Value() == 0 {
			t.Error("lossy links produced no retransmissions")
		}
		if g.NicKV.Failovers != 0 {
			t.Errorf("loss-induced delay tripped the failure detector (%d failovers)", g.NicKV.Failovers)
		}
		for i, cl := range c.Clients {
			if errs := cl.Stats().ErrReplies; errs != 0 {
				t.Errorf("client%d saw %d error replies under loss", i, errs)
			}
		}
	}
}

// TestWaitResolvesAfterSlaveFailure: a WAIT blocked on a replica that is
// then declared invalid must still resolve at its timeout, reporting the
// post-failure acknowledged count instead of hanging forever.
func TestWaitResolvesAfterSlaveFailure(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ProgressInterval = 50 * sim.Millisecond
	c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 1, Seed: 41,
		Params: ChaosParams(0), SKV: cfg})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	// Kill slave0 before the write: it will never acknowledge the offset
	// the WAIT targets, and the probe detector declares it invalid while
	// the waiter is blocked.
	c.Slaves[0].Crash()

	m := c.Net.NewMachine("waiter", false)
	proc := sim.NewProc(c.Eng, sim.NewCore(c.Eng, "waiter-core", 1.0), c.Params.ClientWakeup)
	stack := rconn.New(c.Net, m.Host, proc)
	var waitReply *resp.Value
	var waitSent, replyAt sim.Time
	g := c.Groups[0]
	stack.Dial(g.MasterMachine.Host, core.ClientPort, func(conn transport.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		var r resp.Reader
		sentWait := false
		conn.SetHandler(func(data []byte) {
			r.Feed(data)
			for {
				v, ok, _ := r.ReadValue()
				if !ok {
					return
				}
				if !sentWait {
					// First reply is the SET's +OK: now block on 2 replicas
					// with a 500ms timeout, while only one can ever ack.
					sentWait = true
					waitSent = c.Eng.Now()
					conn.Send(resp.EncodeCommand("WAIT", "2", "500"))
					continue
				}
				if waitReply == nil {
					vv := v
					waitReply = &vv
					replyAt = c.Eng.Now()
				}
			}
		})
		conn.Send(resp.EncodeCommand("SET", "wait-key", "wait-val"))
	})
	c.Eng.RunFor(3 * sim.Second)

	if waitReply == nil {
		t.Fatal("WAIT never replied after replica failure")
	}
	if waitReply.Type != resp.TypeInteger || waitReply.Int != 1 {
		t.Fatalf("WAIT after slave failure = %s, want :1 (the surviving replica)", waitReply.String())
	}
	if elapsed := replyAt.Sub(waitSent); elapsed < 450*sim.Millisecond {
		t.Fatalf("WAIT resolved after %v — expected to block until its 500ms timeout", elapsed)
	}
	if g.NicKV.ValidSlaves() != 1 {
		t.Fatalf("detector sees %d valid slaves, want 1", g.NicKV.ValidSlaves())
	}
}
