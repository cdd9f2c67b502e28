package cluster

import (
	"fmt"
	"testing"

	"skv/internal/core"
	"skv/internal/model"
	"skv/internal/sim"
)

// fastProbeParams shrinks the failure-detection timescale so crash/recovery
// tests run quickly; ratios (waiting-time = 2×probe period) match defaults.
func fastProbeParams() *model.Params {
	p := model.Default()
	p.ProbePeriod = 100 * sim.Millisecond
	p.WaitingTime = 200 * sim.Millisecond
	return &p
}

func storeGet(c *Cluster, srvIdx int, key string) string {
	var reply []byte
	if srvIdx < 0 {
		reply, _ = c.Master.Store().Exec(0, [][]byte{[]byte("GET"), []byte(key)})
	} else {
		reply, _ = c.Slaves[srvIdx].Store().Exec(0, [][]byte{[]byte("GET"), []byte(key)})
	}
	return string(reply)
}

func TestTCPClusterServesClients(t *testing.T) {
	c := Build(Config{Kind: KindTCP, Slaves: 0, Clients: 2, Seed: 1})
	res := c.Measure(20*sim.Millisecond, 200*sim.Millisecond)
	if res.Ops < 1000 {
		t.Fatalf("TCP cluster did only %d ops", res.Ops)
	}
	if res.ErrReplies != 0 {
		t.Fatalf("unexpected error replies: %d", res.ErrReplies)
	}
	if res.Throughput < 50_000 || res.Throughput > 200_000 {
		t.Fatalf("TCP throughput %.0f ops/s outside plausible Redis range", res.Throughput)
	}
}

func TestRDMAClusterFasterThanTCP(t *testing.T) {
	tcp := Build(Config{Kind: KindTCP, Slaves: 0, Clients: 8, Seed: 2})
	rdma := Build(Config{Kind: KindRDMA, Slaves: 0, Clients: 8, Seed: 2})
	rt := tcp.Measure(20*sim.Millisecond, 200*sim.Millisecond)
	rr := rdma.Measure(20*sim.Millisecond, 200*sim.Millisecond)
	if rr.Throughput < 2*rt.Throughput {
		t.Fatalf("RDMA-Redis (%.0f) should be ≥2× Redis (%.0f) at 8 clients (Fig 10a)",
			rr.Throughput, rt.Throughput)
	}
}

func TestRDMAReplicationSyncsAndPropagates(t *testing.T) {
	c := Build(Config{Kind: KindRDMA, Slaves: 3, Clients: 4, Seed: 3})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("slaves never reached steady state")
	}
	res := c.Measure(20*sim.Millisecond, 100*sim.Millisecond)
	if res.Ops == 0 {
		t.Fatal("no ops measured")
	}
	// Let in-flight replication drain.
	c.Eng.Run(c.Eng.Now().Add(100 * sim.Millisecond))
	// Every slave's dataset must match the master for a sample of keys.
	keys := c.Master.Store().DBSize(0)
	if keys == 0 {
		t.Fatal("master has no keys after SET workload")
	}
	for i := range c.Slaves {
		if got := c.Slaves[i].Store().DBSize(0); got != keys {
			t.Errorf("slave%d has %d keys, master has %d", i, got, keys)
		}
	}
}

func TestSKVReplicationSyncsAndPropagates(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Slaves: 3, Clients: 4, Seed: 4, SKV: core.DefaultConfig()})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("SKV slaves never reached steady state")
	}
	res := c.Measure(20*sim.Millisecond, 100*sim.Millisecond)
	if res.Ops == 0 {
		t.Fatal("no ops measured")
	}
	c.Eng.Run(c.Eng.Now().Add(200 * sim.Millisecond))
	keys := c.Master.Store().DBSize(0)
	for i := range c.Slaves {
		if got := c.Slaves[i].Store().DBSize(0); got != keys {
			t.Errorf("slave%d has %d keys, master has %d", i, got, keys)
		}
	}
	g := c.Groups[0]
	// The headline mechanism: exactly one replication request per
	// propagated write, regardless of 3 slaves.
	if g.HostKV.ReplReqsSent.Value() != c.Master.WritesPropagated {
		t.Errorf("master sent %d repl requests for %d writes (must be 1:1)",
			g.HostKV.ReplReqsSent.Value(), c.Master.WritesPropagated)
	}
	if g.NicKV.ReplRequests.Value() == 0 {
		t.Error("Nic-KV saw no replication requests")
	}
}

func TestSKVValueConsistency(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 2, Seed: 5, KeySpace: 50, SKV: core.DefaultConfig()})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	c.Measure(10*sim.Millisecond, 100*sim.Millisecond)
	c.Eng.Run(c.Eng.Now().Add(200 * sim.Millisecond))
	// Spot-check actual values, not just counts.
	mismatch := 0
	for k := 0; k < 50; k++ {
		key := fmt.Sprintf("key:%010d", k)
		want := storeGet(c, -1, key)
		for i := range c.Slaves {
			if got := storeGet(c, i, key); got != want {
				mismatch++
				t.Errorf("key %s: master=%q slave%d=%q", key, want, i, got)
				if mismatch > 5 {
					t.FailNow()
				}
			}
		}
	}
}

func TestSKVBeatsRDMARedisWithSlaves(t *testing.T) {
	rdma := Build(Config{Kind: KindRDMA, Slaves: 3, Clients: 8, Seed: 6})
	skv := Build(Config{Kind: KindSKV, Slaves: 3, Clients: 8, Seed: 6, SKV: core.DefaultConfig()})
	if !rdma.AwaitReplication(2*sim.Second) || !skv.AwaitReplication(2*sim.Second) {
		t.Fatal("sync failed")
	}
	rr := rdma.Measure(50*sim.Millisecond, 400*sim.Millisecond)
	rs := skv.Measure(50*sim.Millisecond, 400*sim.Millisecond)
	gain := rs.Throughput/rr.Throughput - 1
	if gain < 0.05 {
		t.Fatalf("SKV gain over RDMA-Redis = %.1f%% (skv=%.0f rdma=%.0f); paper reports ≈14%%",
			gain*100, rs.Throughput, rr.Throughput)
	}
	if rs.P99 >= rr.P99 {
		t.Fatalf("SKV p99 (%v) should beat RDMA-Redis p99 (%v)", rs.P99, rr.P99)
	}
}

func TestSKVSlaveFailureDetectedAndServiceContinues(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ProgressInterval = 50 * sim.Millisecond
	c := Build(Config{Kind: KindSKV, Slaves: 3, Clients: 4, Seed: 7, Params: fastProbeParams(), SKV: cfg})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	c.StartClients()
	base := c.Eng.Now()
	// Crash slave 1, recover it later (the Fig 14 schedule, compressed).
	c.Eng.At(base.Add(200*sim.Millisecond), func() { c.Slaves[1].Crash() })
	c.Eng.At(base.Add(700*sim.Millisecond), func() { c.Slaves[1].Recover() })

	c.Eng.Run(base.Add(600 * sim.Millisecond))
	g := c.Groups[0]
	if g.NicKV.ValidSlaves() != 2 {
		t.Fatalf("after crash+waiting-time, valid slaves = %d, want 2", g.NicKV.ValidSlaves())
	}
	c.Eng.Run(base.Add(1400 * sim.Millisecond))
	if g.NicKV.ValidSlaves() != 3 {
		t.Fatalf("after recovery, valid slaves = %d, want 3", g.NicKV.ValidSlaves())
	}
	// The recovered slave must converge with the master again.
	c.Eng.Run(base.Add(1600 * sim.Millisecond))
	for _, cl := range c.Clients {
		cl.Stop()
	}
	c.Eng.Run(base.Add(2 * sim.Second))
	keys := c.Master.Store().DBSize(0)
	if got := c.Slaves[1].Store().DBSize(0); got != keys {
		t.Fatalf("recovered slave has %d keys, master %d", got, keys)
	}
	// The client never saw an error (Fig 14: "the client is not aware of
	// the failure of slave").
	for _, cl := range c.Clients {
		if errs := cl.Stats().ErrReplies; errs != 0 {
			t.Fatalf("client %s saw %d error replies during slave failure", cl.Name(), errs)
		}
	}
}

func TestSKVMasterFailoverAndRestore(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 1, Seed: 8, Params: fastProbeParams(), SKV: core.DefaultConfig()})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	base := c.Eng.Now()
	c.Eng.At(base.Add(100*sim.Millisecond), func() { c.Master.Crash() })
	c.Eng.Run(base.Add(600 * sim.Millisecond))
	g := c.Groups[0]
	if g.NicKV.MasterValid() {
		t.Fatal("NIC still believes the master is alive")
	}
	if g.NicKV.PromotedID() == "" {
		t.Fatal("no slave was promoted")
	}
	promoted := -1
	for i, a := range g.SlaveAgents {
		if a.Promoted.Value() > 0 {
			promoted = i
		}
	}
	if promoted == -1 || c.Slaves[promoted].Role().String() != "master" {
		t.Fatalf("promoted slave index %d not in master role", promoted)
	}
	// Original master recovers: it resumes as master, the promoted node is
	// demoted (§III-D).
	c.Eng.At(c.Eng.Now(), func() { c.Master.Recover() })
	c.Eng.Run(c.Eng.Now().Add(600 * sim.Millisecond))
	if !g.NicKV.MasterValid() {
		t.Fatal("recovered master not restored")
	}
	if g.NicKV.PromotedID() != "" {
		t.Fatal("promoted node not demoted after master recovery")
	}
	if g.SlaveAgents[promoted].Demoted.Value() == 0 {
		t.Fatal("demote order never reached the promoted slave")
	}
	if c.Slaves[promoted].Role().String() != "slave" {
		t.Fatal("demoted node still in master role")
	}
}

func TestSKVMinSlavesGate(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MinSlaves = 2
	c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 2, Seed: 9, Params: fastProbeParams(), SKV: cfg})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	// Let a status report arrive, then run load: no errors with 2 slaves.
	c.Eng.Run(c.Eng.Now().Add(300 * sim.Millisecond))
	res := c.Measure(20*sim.Millisecond, 100*sim.Millisecond)
	if res.ErrReplies != 0 {
		t.Fatalf("errors with enough slaves: %d", res.ErrReplies)
	}
	// Crash one slave → below min-slaves → writes must fail.
	c.Eng.At(c.Eng.Now(), func() { c.Slaves[0].Crash() })
	c.Eng.Run(c.Eng.Now().Add(600 * sim.Millisecond)) // detection + status propagation
	before := totalErrs(c)
	c.Eng.Run(c.Eng.Now().Add(100 * sim.Millisecond))
	after := totalErrs(c)
	if after == before {
		t.Fatalf("no error replies after dropping below min-slaves (before=%d after=%d)", before, after)
	}
}

func totalErrs(c *Cluster) uint64 {
	var n uint64
	for _, cl := range c.Clients {
		n += cl.Stats().ErrReplies
	}
	return n
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		c := Build(Config{Kind: KindSKV, Slaves: 3, Clients: 4, Seed: 11, SKV: core.DefaultConfig()})
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatal("sync failed")
		}
		return c.Measure(20*sim.Millisecond, 100*sim.Millisecond)
	}
	a, b := run(), run()
	if a.Ops != b.Ops || a.Avg != b.Avg || a.P99 != b.P99 {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestGetWorkloadUnaffectedBySlaves(t *testing.T) {
	// Fig 13: GETs never touch the replication path.
	mk := func(kind Kind) Result {
		cfg := Config{Kind: kind, Slaves: 3, Clients: 8, Seed: 12, GetRatio: 1.0}
		if kind == KindSKV {
			cfg.SKV = core.DefaultConfig()
		}
		c := Build(cfg)
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatal("sync failed")
		}
		return c.Measure(50*sim.Millisecond, 300*sim.Millisecond)
	}
	rr := mk(KindRDMA)
	rs := mk(KindSKV)
	ratio := rs.Throughput / rr.Throughput
	if ratio < 0.97 || ratio > 1.03 {
		t.Fatalf("GET throughput should match: skv=%.0f rdma=%.0f (ratio %.3f)",
			rs.Throughput, rr.Throughput, ratio)
	}
}
