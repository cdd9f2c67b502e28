package cluster

import (
	"testing"

	"skv/internal/core"
	"skv/internal/rconn"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/transport"
)

// TestChaosScenarios runs every canned failure scenario twice: the first
// run must converge (and satisfy per-scenario expectations), and the second
// run must produce a byte-identical trace — the harness's determinism
// contract (same seed → same event sequence).
func TestChaosScenarios(t *testing.T) {
	for _, s := range ChaosScenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			c, h, err := RunScenario(s)
			if err != nil {
				t.Fatalf("convergence failed:\n%v\ntrace:\n%s", err, h.TraceString())
			}
			checkScenarioExpectations(t, s.Name, c, h)

			requireDeterministicRerun(t, s, c, h)
		})
	}
}

// requireDeterministicRerun runs the scenario again and holds it to the
// harness's determinism contract (same seed → same event sequence): a
// byte-identical trace, and — the observability plane obeys the same contract
// — identical metrics snapshots and failover timeline.
func requireDeterministicRerun(t *testing.T, s Scenario, c *Cluster, h *Chaos) {
	t.Helper()
	c2, h2, err := RunScenario(s)
	if err != nil {
		t.Fatalf("second run diverged in outcome: %v", err)
	}
	if h.TraceString() != h2.TraceString() {
		t.Fatalf("trace not deterministic across identical runs:\n--- run1:\n%s--- run2:\n%s",
			h.TraceString(), h2.TraceString())
	}
	if s1, s2 := c.SnapshotsString(), c2.SnapshotsString(); s1 != s2 {
		t.Fatalf("metrics snapshots not deterministic:\n--- run1:\n%s--- run2:\n%s", s1, s2)
	}
	if t1, t2 := c.NicKV.Timeline().String(), c2.NicKV.Timeline().String(); t1 != t2 {
		t.Fatalf("failover timeline not deterministic:\n--- run1:\n%s--- run2:\n%s", t1, t2)
	}
}

// checkScenarioExpectations asserts the failure path each scenario is meant
// to exercise actually fired (convergence alone could hide a no-op script).
func checkScenarioExpectations(t *testing.T, name string, c *Cluster, h *Chaos) {
	t.Helper()
	switch name {
	case "master-restart-split-brain":
		if c.NicKV.Failovers == 0 {
			t.Error("master crash never triggered a failover")
		}
		if c.NicKV.MasterRestores == 0 {
			t.Error("master restart never triggered a restore")
		}
		if c.SlaveAgents[0].Promoted+c.SlaveAgents[1].Promoted+c.SlaveAgents[2].Promoted == 0 {
			t.Error("no slave was promoted")
		}
		if c.SlaveAgents[0].Demoted+c.SlaveAgents[1].Demoted+c.SlaveAgents[2].Demoted == 0 {
			t.Error("no slave was demoted after the master returned")
		}
	case "slave-crash-recover":
		if c.SlaveAgents[1].Resyncs == 0 {
			t.Error("recovered slave never resynchronized")
		}
		if c.NicKV.Failovers != 0 {
			t.Errorf("slave crash caused %d failovers", c.NicKV.Failovers)
		}
	case "slave-flap-resync":
		if c.SlaveAgents[1].Resyncs == 0 {
			t.Error("flapped slave never resynchronized")
		}
		if c.Net.Parked == 0 {
			t.Error("flap parked no traffic")
		}
	case "nic-partition-probe-timeout":
		if c.Net.Parked == 0 {
			t.Error("partition parked no traffic")
		}
		if c.NicKV.Failovers != 0 {
			t.Errorf("slave-side partition caused %d failovers", c.NicKV.Failovers)
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
		if c.Net.Faults().Retransmits == 0 {
			t.Error("lossy links produced no retransmissions")
		}
		if c.NicKV.Failovers != 0 {
			t.Errorf("loss-induced delay tripped the failure detector (%d failovers)", c.NicKV.Failovers)
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
	stack.Dial(c.MasterMachine.Host, core.ClientPort, func(conn transport.Conn, err error) {
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
	if c.NicKV.ValidSlaves() != 1 {
		t.Fatalf("detector sees %d valid slaves, want 1", c.NicKV.ValidSlaves())
	}
}
