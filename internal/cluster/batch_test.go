package cluster

import (
	"fmt"
	"testing"

	"skv/internal/core"
	"skv/internal/model"
	"skv/internal/rconn"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/store"
	"skv/internal/transport"
)

func batchParams(batch int) *model.Params {
	p := model.Default()
	p.ReplBatchMaxCmds = batch
	return &p
}

// TestSKVKeyspaceIdenticalAcrossBatchSizes runs the same scripted mixed
// workload on SKV clusters at batch sizes 1, 4 and 64 and requires the
// final keyspaces — master and every slave — to be logically identical.
// Batching may change when bytes travel, never what they say.
func TestSKVKeyspaceIdenticalAcrossBatchSizes(t *testing.T) {
	var ref *store.Store
	for _, batch := range []int{1, 4, 64} {
		c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 0, Seed: 31,
			Params: batchParams(batch), SKV: core.DefaultConfig()})
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatalf("batch=%d: sync failed", batch)
		}
		randomWriter(t, c, 77, 2000)
		fp := fingerprint(c.Master.Store())
		if len(fp) == 0 {
			t.Fatalf("batch=%d: master keyspace empty", batch)
		}
		if ref == nil {
			ref = c.Master.Store()
		}
		requireSameKeyspace(t, fmt.Sprintf("batch=%d master vs the batch=1 master", batch), ref, c.Master.Store())
		for i, s := range c.Slaves {
			requireSameKeyspace(t, fmt.Sprintf("batch=%d slave%d", batch, i), c.Master.Store(), s.Store())
		}
	}
}

// TestSKVBatchingAmortizesWRs is the PR's headline number: with batching
// enabled on a 1-master/3-slave SET workload, the master posts FEWER
// replication work requests than it propagates writes — while every write
// still reaches Nic-KV (CmdsOffloaded accounts for all of them) and
// throughput does not regress against the unbatched run.
func TestSKVBatchingAmortizesWRs(t *testing.T) {
	run := func(batch int) (*Cluster, Result) {
		c := Build(Config{Kind: KindSKV, Slaves: 3, Clients: 4, Seed: 91,
			Pipeline: 8, Params: batchParams(batch), SKV: core.DefaultConfig()})
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatalf("batch=%d: sync failed", batch)
		}
		res := c.Measure(20*sim.Millisecond, 200*sim.Millisecond)
		c.Eng.Run(c.Eng.Now().Add(200 * sim.Millisecond))
		return c, res
	}

	c1, res1 := run(1)
	if c1.Groups[0].HostKV.ReplReqsSent.Value() != c1.Master.WritesPropagated {
		t.Fatalf("batch=1 must stay 1:1 — %d WRs for %d writes",
			c1.Groups[0].HostKV.ReplReqsSent.Value(), c1.Master.WritesPropagated)
	}

	c4, res4 := run(4)
	if c4.Master.WritesPropagated == 0 {
		t.Fatal("batch=4: no writes propagated")
	}
	if c4.Groups[0].HostKV.ReplReqsSent.Value() >= c4.Master.WritesPropagated {
		t.Fatalf("batching bought nothing: %d WRs for %d writes",
			c4.Groups[0].HostKV.ReplReqsSent.Value(), c4.Master.WritesPropagated)
	}
	// Every propagated write (plus any injected SELECTs, none here: single
	// db) must still be offloaded — batching drops nothing.
	if c4.Groups[0].HostKV.CmdsOffloaded.Value() != c4.Master.WritesPropagated {
		t.Fatalf("offloaded %d commands for %d writes", c4.Groups[0].HostKV.CmdsOffloaded.Value(), c4.Master.WritesPropagated)
	}
	if c4.Groups[0].NicKV.ReplCmds.Value() != c4.Groups[0].NicKV.ReplRequests.Value() &&
		c4.Groups[0].NicKV.ReplCmds.Value() < c4.Groups[0].NicKV.ReplRequests.Value() {
		t.Fatalf("Nic-KV cmd accounting broken: %d cmds in %d requests",
			c4.Groups[0].NicKV.ReplCmds.Value(), c4.Groups[0].NicKV.ReplRequests.Value())
	}
	if res4.Throughput < res1.Throughput {
		t.Fatalf("batching regressed throughput: %.0f ops/s vs %.0f unbatched",
			res4.Throughput, res1.Throughput)
	}
	// Slaves converge despite the coalesced frames.
	keys := c4.Master.Store().DBSize(0)
	for i := range c4.Slaves {
		if got := c4.Slaves[i].Store().DBSize(0); got != keys {
			t.Errorf("batch=4: slave%d has %d keys, master %d", i, got, keys)
		}
	}
}

// TestWaitCommandAcrossBatchSizes checks WAIT semantics survive batching:
// the acknowledged-replica count still reaches the requested quorum, at
// every batch size, because partial batches flush on event-loop quiesce
// (WAIT never deadlocks on bytes parked in a pending batch).
func TestWaitCommandAcrossBatchSizes(t *testing.T) {
	for _, batch := range []int{1, 4, 64} {
		cfg := core.DefaultConfig()
		cfg.ProgressInterval = 50 * sim.Millisecond
		p := batchParams(batch)
		p.ProbePeriod = 100 * sim.Millisecond
		p.WaitingTime = 200 * sim.Millisecond
		c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 1, Seed: 34,
			Params: p, SKV: cfg})
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatalf("batch=%d: sync failed", batch)
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
			t.Fatalf("batch=%d: WAIT never replied", batch)
		}
		if got.Type != resp.TypeInteger || got.Int != 2 {
			t.Fatalf("batch=%d: WAIT = %s, want :2", batch, got.String())
		}
	}
}

// TestChaosScenariosBatched re-runs the PR-1 failure scenarios with the
// replication stream batched at 4 and 64 commands: every scenario must
// still converge (single master, no promoted leftovers, identical
// keyspaces); TestChaosScenarios holds a batched run to the determinism
// contract.
func TestChaosScenariosBatched(t *testing.T) {
	for _, batch := range []int{4, 64} {
		for _, s := range ChaosScenarios() {
			s.Config.Params.ReplBatchMaxCmds = batch
			t.Run(fmt.Sprintf("%s/batch%d", s.Name, batch), func(t *testing.T) {
				t.Parallel()
				c, h, err := RunScenario(s)
				if err != nil {
					t.Fatalf("convergence failed:\n%v\ntrace:\n%s", err, h.TraceString())
				}
				if batch == 4 && s.Name == "slave-crash-recover" && c.Groups[0].SlaveAgents[1].Resyncs.Value() == 0 {
					t.Error("recovered slave never resynchronized")
				}
			})
		}
	}
}
