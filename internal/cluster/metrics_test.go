package cluster

import (
	"strings"
	"testing"

	"skv/internal/core"
	"skv/internal/metrics"
	"skv/internal/rconn"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/transport"
)

// TestMetricsSnapshotsDeterministic runs the same measured SKV deployment
// twice: the full cross-node snapshot rendering must match byte for byte
// (the registry determinism contract — sim-clock stamps only, sorted
// rendering, no map-order or wall-time leakage).
func TestMetricsSnapshotsDeterministic(t *testing.T) {
	run := func() string {
		cfg := core.DefaultConfig()
		cfg.ProgressInterval = 50 * sim.Millisecond
		c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 2, Seed: 71,
			Params: fastProbeParams(), SKV: cfg})
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatal("sync failed")
		}
		c.Measure(20*sim.Millisecond, 100*sim.Millisecond)
		return c.SnapshotsString()
	}
	s1, s2 := run(), run()
	if s1 != s2 {
		t.Fatalf("snapshots not deterministic:\n--- run1:\n%s--- run2:\n%s", s1, s2)
	}
	// The snapshot must actually cover every layer, not be trivially empty.
	for _, want := range []string{
		"node=fabric", "node=master", "node=slave0", "node=master/nic",
		"counter fabric.tx.msgs ", "counter rdma.wr.send ",
		"counter nickv.stream.sent ", "counter hostkv.repl_reqs ",
		"counter slaveagent.applied ", "counter server.cmd.set.calls ",
		"hist server.cmd.set.service ", "hist nickv.probe.rtt ",
	} {
		if !strings.Contains(s1, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, s1)
		}
	}
}

// TestReplicationLagConverges drives writes through an SKV cluster, issues
// WAIT for full acknowledgement, and asserts the per-slave backlog-lag
// gauges on the NIC have converged to zero.
func TestReplicationLagConverges(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ProgressInterval = 50 * sim.Millisecond
	c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 1, Seed: 72,
		Params: fastProbeParams(), SKV: cfg})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	c.Measure(10*sim.Millisecond, 50*sim.Millisecond)
	// Stop the load: the lag gauge can only converge to zero once the
	// stream quiesces and the slaves' progress reports catch up.
	for _, cl := range c.Clients {
		cl.Stop()
	}

	m := c.Net.NewMachine("waiter", false)
	proc := sim.NewProc(c.Eng, sim.NewCore(c.Eng, "waiter-core", 1.0), c.Params.ClientWakeup)
	stack := rconn.New(c.Net, m.Host, proc)
	var got *resp.Value
	stack.Dial(c.Groups[0].MasterMachine.Host, core.ClientPort, func(conn transport.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		var r resp.Reader
		conn.SetHandler(func(data []byte) {
			r.Feed(data)
			if v, ok, _ := r.ReadValue(); ok {
				got = &v
			}
		})
		conn.Send(resp.EncodeCommand("WAIT", "2", "2000"))
	})
	c.Eng.Run(c.Eng.Now().Add(3 * sim.Second))
	if got == nil || got.Int != 2 {
		t.Fatalf("WAIT = %v, want :2", got)
	}

	snap := c.Groups[0].NicKV.Metrics().Snapshot()
	lags := 0
	for name, v := range snap.Gauges {
		if !strings.HasPrefix(name, "nickv.lag.") {
			continue
		}
		lags++
		if v != 0 {
			t.Errorf("gauge %s = %d after WAIT, want 0", name, v)
		}
	}
	if lags != 2 {
		t.Fatalf("lag gauges = %d, want one per slave (2); gauges: %v", lags, snap.Gauges)
	}
}

// TestFailoverTimelineOrdering crashes and restarts the master and checks
// the NIC's failover tracer recorded the §III-D chain in causal order with
// sane sim-clock stamps: probe-miss → mark-down(master) → promote →
// restore → demote.
func TestFailoverTimelineOrdering(t *testing.T) {
	var s Scenario
	for _, sc := range ChaosScenarios() {
		if sc.Name == "master-restart-split-brain" {
			s = sc
		}
	}
	if s.Name == "" {
		t.Fatal("master-restart scenario not found")
	}
	c, h, err := RunScenario(s)
	if err != nil {
		t.Fatalf("convergence failed:\n%v\ntrace:\n%s", err, h.TraceString())
	}
	tl := c.Groups[0].NicKV.Timeline()

	down, okDown := tl.First(metrics.EventMarkDown)
	promote, okPromote := tl.First(metrics.EventPromote)
	restore, okRestore := tl.First(metrics.EventRestore)
	demote, okDemote := tl.First(metrics.EventDemote)
	if !okDown || !okPromote || !okRestore || !okDemote {
		t.Fatalf("missing timeline events:\n%s", tl.String())
	}
	if down.Node != "master" {
		t.Fatalf("first mark-down is %q, want master:\n%s", down.Node, tl.String())
	}
	if miss, okMiss := tl.First(metrics.EventProbeMiss); !okMiss || miss.At > down.At {
		t.Fatalf("no probe-miss before mark-down:\n%s", tl.String())
	}
	if !(down.At <= promote.At && promote.At <= restore.At && restore.At <= demote.At) {
		t.Fatalf("events out of order:\n%s", tl.String())
	}
	if down.At <= 0 || demote.At >= c.Eng.Now() {
		t.Fatalf("timestamps out of range (now=%d):\n%s", int64(c.Eng.Now()), tl.String())
	}
	// The crash was scripted at 200ms and detection needs at least one
	// waiting-time (200ms): mark-down cannot plausibly precede 400ms-ish.
	if down.At < sim.Time(300*sim.Millisecond) {
		t.Fatalf("mark-down implausibly early at %v:\n%s", down.At, tl.String())
	}
	if promote.Node != demote.Node {
		t.Fatalf("promoted %q but demoted %q:\n%s", promote.Node, demote.Node, tl.String())
	}
}

// TestSKVMasterInfo asserts the live SKV master's INFO output: the
// Replication section reports master_repl_offset and one offset/lag line
// per slave (fed by Nic-KV's status frames), and the SKV section reports
// the offload counters.
func TestSKVMasterInfo(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ProgressInterval = 50 * sim.Millisecond
	c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 1, Seed: 73,
		Params: fastProbeParams(), SKV: cfg})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	c.Measure(10*sim.Millisecond, 50*sim.Millisecond)
	c.Eng.Run(c.Eng.Now().Add(500 * sim.Millisecond))

	m := c.Net.NewMachine("infocli", false)
	proc := sim.NewProc(c.Eng, sim.NewCore(c.Eng, "infocli-core", 1.0), c.Params.ClientWakeup)
	stack := rconn.New(c.Net, m.Host, proc)
	var got *resp.Value
	stack.Dial(c.Groups[0].MasterMachine.Host, core.ClientPort, func(conn transport.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		var r resp.Reader
		conn.SetHandler(func(data []byte) {
			r.Feed(data)
			if v, ok, _ := r.ReadValue(); ok {
				got = &v
			}
		})
		conn.Send(resp.EncodeCommand("INFO"))
	})
	c.Eng.Run(c.Eng.Now().Add(500 * sim.Millisecond))
	if got == nil || got.Type != resp.TypeBulk {
		t.Fatalf("INFO reply = %v", got)
	}
	body := got.String()
	for _, want := range []string{
		"# Replication", "role:master", "connected_slaves:2",
		"master_repl_offset:", "slave0:offset=", "slave1:offset=", ",lag=",
		"# SKV", "valid_slaves:2", "repl_reqs_sent:", "cmds_offloaded:",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("SKV master INFO missing %q:\n%s", want, body)
		}
	}
}
