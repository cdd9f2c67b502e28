package cluster

import (
	"fmt"
	"testing"

	"skv/internal/consistency"
	"skv/internal/core"
	"skv/internal/model"
	"skv/internal/rconn"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/store"
	"skv/internal/transport"
)

func shardParams(shards int) *model.Params {
	p := model.Default()
	p.HostShards = shards
	return &p
}

// TestSKVKeyspaceIdenticalAcrossShardCounts runs the same scripted mixed
// workload on SKV clusters with 1, 2 and 4 host shards and requires the
// final keyspaces — master and every slave — to be logically identical.
// Sharding may change which core executes a command, never its effect. Each
// shard count also runs twice and must produce byte-identical metric
// snapshots: the sharded pipeline stays inside the determinism contract.
func TestSKVKeyspaceIdenticalAcrossShardCounts(t *testing.T) {
	runOnce := func(shards int) (*Cluster, map[string]string) {
		c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 0, Seed: 31,
			Params: shardParams(shards), SKV: core.DefaultConfig()})
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatalf("shards=%d: sync failed", shards)
		}
		randomWriter(t, c, 77, 2000)
		return c, fingerprint(c.Master.Store())
	}
	var ref *store.Store
	for _, shards := range []int{1, 2, 4} {
		c, fp := runOnce(shards)
		if len(fp) == 0 {
			t.Fatalf("shards=%d: master keyspace empty", shards)
		}
		if ref == nil {
			ref = c.Master.Store()
		}
		requireSameKeyspace(t, fmt.Sprintf("shards=%d master vs the shards=1 master", shards), ref, c.Master.Store())
		for i, s := range c.Slaves {
			requireSameKeyspace(t, fmt.Sprintf("shards=%d slave%d", shards, i), c.Master.Store(), s.Store())
		}
		// Determinism: an identical second run renders identical snapshots.
		c2, _ := runOnce(shards)
		if c.SnapshotsString() != c2.SnapshotsString() {
			t.Fatalf("shards=%d: metric snapshots differ across identical runs", shards)
		}
	}
}

// TestWaitCommandAcrossShardCounts checks WAIT semantics survive sharding:
// WAIT is a barrier on the dispatch plane, so the offset it snapshots
// covers every routed write admitted before it, and the acknowledged
// replica count still reaches quorum at every shard count.
func TestWaitCommandAcrossShardCounts(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		cfg := core.DefaultConfig()
		cfg.ProgressInterval = 50 * sim.Millisecond
		p := shardParams(shards)
		p.ProbePeriod = 100 * sim.Millisecond
		p.WaitingTime = 200 * sim.Millisecond
		c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 1, Seed: 34,
			Params: p, SKV: cfg})
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatalf("shards=%d: sync failed", shards)
		}
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
			t.Fatalf("shards=%d: WAIT never replied", shards)
		}
		if got.Type != resp.TypeInteger || got.Int != 2 {
			t.Fatalf("shards=%d: WAIT = %s, want :2", shards, got.String())
		}
	}
}

// TestShardedThroughputScales is the point of the refactor: with the
// keyspace execution spread over four cores, a saturating SET workload
// clears more operations than the single-threaded server, and the shard
// cores actually absorb work (nonzero utilization).
func TestShardedThroughputScales(t *testing.T) {
	run := func(shards int) Result {
		c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 8, Pipeline: 8,
			Seed: 55, Params: shardParams(shards), SKV: core.DefaultConfig()})
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatalf("shards=%d: sync failed", shards)
		}
		return c.Measure(20*sim.Millisecond, 200*sim.Millisecond)
	}
	res1 := run(1)
	res4 := run(4)
	if len(res1.ShardUtils) != 0 {
		t.Fatalf("shards=1 reported shard cores: %v", res1.ShardUtils)
	}
	if len(res4.ShardUtils) != 4 {
		t.Fatalf("shards=4 reported %d shard cores", len(res4.ShardUtils))
	}
	busy := 0
	for _, u := range res4.ShardUtils {
		if u > 0.05 {
			busy++
		}
	}
	if busy < 4 {
		t.Fatalf("only %d/4 shard cores absorbed load: %v", busy, res4.ShardUtils)
	}
	if res4.Throughput <= res1.Throughput {
		t.Fatalf("sharding bought nothing: %.0f ops/s at 4 shards vs %.0f at 1",
			res4.Throughput, res1.Throughput)
	}
}

// TestChaosScenariosSharded re-runs the PR-1 failure scenarios with the
// master and slaves running 2 and 4 host shards: every scenario must still
// converge (single master, no promoted leftovers, identical keyspaces);
// TestChaosScenarios holds a sharded run to the determinism contract.
func TestChaosScenariosSharded(t *testing.T) {
	for _, shards := range []int{2, 4} {
		for _, s := range ChaosScenarios() {
			s.Config.Params.HostShards = shards
			t.Run(fmt.Sprintf("%s/shards%d", s.Name, shards), func(t *testing.T) {
				t.Parallel()
				_, h, err := RunScenario(s)
				if err != nil {
					t.Fatalf("convergence failed:\n%v\ntrace:\n%s", err, h.TraceString())
				}
			})
		}
	}
}

// TestOneShardPaysNoHandoff: with HostShards=1 the shard's proc IS the
// dispatch proc, so the route → execute → merge hop and the barrier fence
// cross no core. Pricing every cross-core cost at a millisecond must then
// change nothing the deployment can observe: not the measured result, not a
// counter or histogram in any registry, not the number of events the engine
// ran. The second half pins what the hop-free pipeline still owes a
// connection: with quorum writes parked on the NIC gate, a pipeline-8 client
// gets its replies in request order.
func TestOneShardPaysNoHandoff(t *testing.T) {
	run := func(handoff sim.Duration) (Result, string, uint64) {
		p := shardParams(1)
		if handoff > 0 {
			p.ShardRouteCPU, p.ShardMergeCPU, p.ShardFenceCPU = handoff, handoff, handoff
		}
		c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 4, Seed: 35, Params: p, SKV: core.DefaultConfig()})
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatal("sync failed")
		}
		res := c.Measure(5*sim.Millisecond, 30*sim.Millisecond) // pure SET
		for _, cl := range c.Clients {
			cl.Stop()
		}
		rc := dialRaw(t, c, "prober", c.Groups[0].MasterMachine.Host, core.ClientPort)
		rc.conn.Send(resp.EncodeCommand("DBSIZE")) // one barrier
		c.Eng.RunFor(20 * sim.Millisecond)
		if len(rc.vals) != 1 || rc.vals[0].Int == 0 {
			t.Fatalf("DBSIZE replied %v", rc.vals)
		}
		if n := c.Master.Metrics().Counter("server.shard.barriers").Value(); n != 1 {
			t.Fatalf("server.shard.barriers = %d, want 1", n)
		}
		if n := len(c.Master.ShardProcs()) + len(c.Master.ShardRegistries()) + len(res.ShardUtils); n != 0 {
			t.Fatalf("the one shard was modelled as %d extra cores/registries/utils", n)
		}
		return res, c.SnapshotsString(), c.Eng.Processed
	}
	res, snaps, events := run(0)
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	res2, snaps2, events2 := run(sim.Millisecond)
	if res.String() != res2.String() || res.MasterUtil != res2.MasterUtil || res.NicUtil != res2.NicUtil {
		t.Fatalf("Measure moved with the handoff costs:\n%s\n%s", res, res2)
	}
	if snaps != snaps2 {
		t.Fatal("metric snapshots moved with the handoff costs")
	}
	if events != events2 {
		t.Fatalf("engine ran %d events, %d with 1ms handoff costs", events, events2)
	}

	// Quorum row: W=2, pipeline 8, one shard.
	c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 0, Seed: 36, Params: shardParams(1), SKV: core.DefaultConfig(),
		Consistency: ConsistencyOpts{Level: consistency.Quorum, Quorum: 2}})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("quorum: sync failed")
	}
	rc := dialRaw(t, c, "pipeliner", c.Groups[0].MasterMachine.Host, core.ClientPort)
	var pipe []byte
	var want []string
	for i := 0; i < 4; i++ {
		k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		pipe = append(pipe, resp.EncodeCommand("SET", k, v)...)
		pipe = append(pipe, resp.EncodeCommand("GET", k)...)
		want = append(want, "OK", v)
	}
	rc.conn.Send(pipe)
	parkedSeen := 0
	for i := 0; i < 2000 && len(rc.vals) < len(want); i++ {
		c.Eng.RunFor(sim.Microsecond)
		if parked := c.Master.Acks().Parked(); parked > 0 {
			parkedSeen = max(parkedSeen, parked)
			// A parked write holds its turn: nothing behind it — not even the
			// GETs that already executed — may have surfaced.
			if got := len(rc.vals); got > 2*(4-parked) {
				t.Fatalf("%d replies out while %d of 4 writes are parked", got, parked)
			}
		}
	}
	if parkedSeen == 0 {
		t.Fatal("no write ever parked: the quorum gate was not exercised")
	}
	var got []string
	for _, v := range rc.vals {
		got = append(got, v.String())
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("quorum pipeline replied %v, want %v", got, want)
	}
}
