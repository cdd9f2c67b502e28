package cluster

import (
	"testing"

	"skv/internal/core"
	"skv/internal/model"
	"skv/internal/rconn"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/transport"
)

func TestTCPClusterWithSlavesPropagates(t *testing.T) {
	c := Build(Config{Kind: KindTCP, Slaves: 2, Clients: 2, Seed: 21})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("TCP slaves never synced")
	}
	c.Measure(20*sim.Millisecond, 100*sim.Millisecond)
	c.Eng.Run(c.Eng.Now().Add(100 * sim.Millisecond))
	keys := c.Master.Store().DBSize(0)
	if keys == 0 {
		t.Fatal("no keys written")
	}
	for i := range c.Slaves {
		if got := c.Slaves[i].Store().DBSize(0); got != keys {
			t.Fatalf("tcp slave%d keys=%d master=%d", i, got, keys)
		}
	}
}

func TestSKVMultiThreadedNicConsistency(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ThreadNum = 4
	c := Build(Config{Kind: KindSKV, Slaves: 6, Clients: 4, Seed: 22, SKV: cfg})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	c.Measure(20*sim.Millisecond, 150*sim.Millisecond)
	c.Eng.Run(c.Eng.Now().Add(300 * sim.Millisecond))
	keys := c.Master.Store().DBSize(0)
	for i := range c.Slaves {
		if got := c.Slaves[i].Store().DBSize(0); got != keys {
			t.Fatalf("threaded fan-out: slave%d keys=%d master=%d", i, got, keys)
		}
	}
}

func TestSKVThreadNumReducesLagWithManySlaves(t *testing.T) {
	lagFor := func(threads int) int64 {
		cfg := core.DefaultConfig()
		cfg.ThreadNum = threads
		c := Build(Config{Kind: KindSKV, Slaves: 8, Clients: 8, Seed: 23, SKV: cfg})
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatal("sync failed")
		}
		c.Measure(20*sim.Millisecond, 200*sim.Millisecond)
		minOff := int64(-1)
		for _, a := range c.Groups[0].SlaveAgents {
			if minOff < 0 || a.Offset() < minOff {
				minOff = a.Offset()
			}
		}
		return c.Master.ReplOffset() - minOff
	}
	single := lagFor(1)
	multi := lagFor(4)
	if single < 100_000 {
		t.Skipf("single-threaded NIC kept up (lag=%d); model changed?", single)
	}
	if multi >= single/4 {
		t.Fatalf("thread-num=4 lag %d not ≪ thread-num=1 lag %d", multi, single)
	}
}

func TestZipfWorkloadRuns(t *testing.T) {
	c := Build(Config{Kind: KindRDMA, Slaves: 0, Clients: 4, Seed: 24, Zipf: true, KeySpace: 100_000})
	res := c.Measure(20*sim.Millisecond, 100*sim.Millisecond)
	if res.Ops < 1000 || res.ErrReplies != 0 {
		t.Fatalf("zipf run: ops=%d errs=%d", res.Ops, res.ErrReplies)
	}
	// Zipf hot keys mean far fewer distinct keys than ops.
	if keys := c.Master.Store().DBSize(0); uint64(keys) >= res.Ops {
		t.Fatalf("zipf created %d keys for %d ops", keys, res.Ops)
	}
}

func TestMixedWorkload(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 4, Seed: 25, GetRatio: 0.7, SKV: core.DefaultConfig()})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	res := c.Measure(20*sim.Millisecond, 150*sim.Millisecond)
	if res.Ops == 0 || res.ErrReplies != 0 {
		t.Fatalf("mixed run: %+v", res)
	}
	// Only the SET fraction is replicated.
	if c.Groups[0].HostKV.ReplReqsSent.Value() == 0 {
		t.Fatal("no writes replicated")
	}
	if c.Groups[0].HostKV.ReplReqsSent.Value() >= c.Master.CommandsProcessed() {
		t.Fatal("GETs were replicated")
	}
}

func TestLargeValuesSurviveReplication(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 2, Seed: 26, ValueSize: 16384, KeySpace: 20, SKV: core.DefaultConfig()})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	c.Measure(20*sim.Millisecond, 100*sim.Millisecond)
	c.Eng.Run(c.Eng.Now().Add(300 * sim.Millisecond))
	// Values are 16KB: verify a slave value byte-for-byte.
	probe := [][]byte{[]byte("GET"), []byte("key:0000000003")}
	want, _ := c.Master.Store().Exec(0, probe)
	if len(want) < 16000 {
		t.Skip("probe key unwritten in this seed")
	}
	for i := range c.Slaves {
		got, _ := c.Slaves[i].Store().Exec(0, probe)
		if string(got) != string(want) {
			t.Fatalf("slave%d 16KB value mismatch (len %d vs %d)", i, len(got), len(want))
		}
	}
}

func TestResultStringAndUtilization(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Slaves: 1, Clients: 2, Seed: 27, SKV: core.DefaultConfig()})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	res := c.Measure(20*sim.Millisecond, 100*sim.Millisecond)
	if res.String() == "" {
		t.Fatal("empty Result string")
	}
	if res.MasterUtil <= 0.5 || res.MasterUtil > 1.0 {
		t.Fatalf("master utilization %.2f implausible under saturation", res.MasterUtil)
	}
	if res.NicUtil <= 0 {
		t.Fatal("NIC utilization missing for SKV")
	}
	if res.System != "skv" {
		t.Fatalf("system name %q", res.System)
	}
}

func TestKindStrings(t *testing.T) {
	if KindTCP.String() != "redis" || KindRDMA.String() != "rdma-redis" || KindSKV.String() != "skv" {
		t.Fatal("kind names")
	}
}

func TestNicServedReadsReturnCorrectValues(t *testing.T) {
	// The §IV-A ablation path: clients talk to the SmartNIC, which serves
	// GETs from its shadow replica.
	c := Build(Config{Kind: KindSKV, Slaves: 0, Clients: 2, Seed: 28,
		GetRatio: 1.0, KeySpace: 100, SKV: core.DefaultConfig(),
		NicReads: NicReadsClients})
	for i := 0; i < 100; i++ {
		key := []byte("key:000000000" + string(rune('0'+i%10)))
		c.Master.Store().Exec(0, [][]byte{[]byte("SET"), key, []byte("val")})
	}
	for i := 0; i < 100; i++ {
		c.Groups[0].NicKV.PreloadReplica("key:000000000"+string(rune('0'+i%10)), []byte("val"))
	}
	res := c.Measure(10*sim.Millisecond, 50*sim.Millisecond)
	if res.Ops == 0 || res.ErrReplies != 0 {
		t.Fatalf("NIC-served reads: %+v", res)
	}
	if c.Groups[0].NicKV.ReplicaStore().DBSize(0) == 0 {
		t.Fatal("replica empty")
	}
}

func TestNicReplicaTracksWrites(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Slaves: 1, Clients: 2, Seed: 29, KeySpace: 50,
		SKV: core.DefaultConfig(), NicReads: NicReadsServe})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	c.Measure(10*sim.Millisecond, 100*sim.Millisecond)
	c.Eng.Run(c.Eng.Now().Add(100 * sim.Millisecond))
	// Every write relayed through the NIC also landed in the replica.
	if got, want := c.Groups[0].NicKV.ReplicaStore().DBSize(0), c.Master.Store().DBSize(0); got != want {
		t.Fatalf("NIC replica has %d keys, master %d", got, want)
	}
}

func TestSKVMaxLagGateTripsWhenNICOverloaded(t *testing.T) {
	// A crawling NIC (0.1× host) cannot keep up with 3-slave fan-out, so
	// replication lag grows; with MaxLag set, the master must start
	// refusing writes (§III-C: "If the progress is too slow ... it will
	// return an error message to the client").
	p := model.Default()
	p.NICCoreSpeed = 0.1
	cfg := core.DefaultConfig()
	cfg.MaxLag = 64 << 10
	cfg.ProgressInterval = 50 * sim.Millisecond
	c := Build(Config{Kind: KindSKV, Slaves: 3, Clients: 8, Seed: 32, Params: &p, SKV: cfg})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	// Run load long enough for lag to build past 64KB and a status report
	// to deliver it.
	res := c.Measure(100*sim.Millisecond, 2*sim.Second)
	if res.ErrReplies == 0 {
		t.Fatalf("no LAGGING errors despite overloaded NIC (lag=%d)", replLagOf(c))
	}
}

func replLagOf(c *Cluster) int64 {
	minOff := int64(-1)
	for _, a := range c.Groups[0].SlaveAgents {
		if minOff < 0 || a.Offset() < minOff {
			minOff = a.Offset()
		}
	}
	return c.Master.ReplOffset() - minOff
}

func TestSKVSyncPathCounters(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 2, Seed: 33,
		Params: fastProbeParams(), SKV: core.DefaultConfig()})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	g := c.Groups[0]
	// Fresh slaves with replid "?" take the full-RDB path... unless the
	// master's backlog still covers offset 0 (fresh master), in which case
	// the partial path is correct. Either way both slaves were served.
	if g.HostKV.FullSyncs.Value()+g.HostKV.PartialSyncs.Value() < 2 {
		t.Fatalf("initial syncs served: full=%d partial=%d", g.HostKV.FullSyncs.Value(), g.HostKV.PartialSyncs.Value())
	}
	c.StartClients()
	c.Eng.Run(c.Eng.Now().Add(200 * sim.Millisecond))

	// Crash a slave briefly: a 20ms outage at this load leaves a stream
	// gap well inside the 1MB backlog, so the resync must take the partial
	// (backlog-range) path. (A longer outage would overflow the backlog
	// and correctly fall back to a full RDB transfer.)
	partialBefore := g.HostKV.PartialSyncs.Value()
	fullBefore := g.HostKV.FullSyncs.Value()
	c.Slaves[0].Crash()
	c.Eng.Run(c.Eng.Now().Add(20 * sim.Millisecond))
	c.Slaves[0].Recover()
	c.Eng.Run(c.Eng.Now().Add(800 * sim.Millisecond))
	if g.HostKV.PartialSyncs.Value() <= partialBefore {
		t.Fatalf("recovery did not use the backlog path (partial %d→%d, full %d→%d)",
			partialBefore, g.HostKV.PartialSyncs.Value(), fullBefore, g.HostKV.FullSyncs.Value())
	}
	// And the recovered slave converged.
	for _, cl := range c.Clients {
		cl.Stop()
	}
	c.Eng.Run(c.Eng.Now().Add(300 * sim.Millisecond))
	if got, want := c.Slaves[0].Store().DBSize(0), c.Master.Store().DBSize(0); got != want {
		t.Fatalf("recovered slave keys=%d master=%d", got, want)
	}
}

func TestWaitCommandOnSKVMaster(t *testing.T) {
	// WAIT on the SKV master consumes the per-slave offsets Nic-KV reports
	// in its status frames.
	cfg := core.DefaultConfig()
	cfg.ProgressInterval = 50 * sim.Millisecond
	c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 1, Seed: 34,
		Params: fastProbeParams(), SKV: cfg})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	// Drive some writes, then issue WAIT through a raw connection.
	c.Measure(10*sim.Millisecond, 50*sim.Millisecond)
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
	if got == nil {
		t.Fatal("WAIT never replied")
	}
	if got.Type != resp.TypeInteger || got.Int != 2 {
		t.Fatalf("WAIT on SKV master = %s, want :2", got.String())
	}
}
