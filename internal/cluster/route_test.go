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

func routeParams(shards, listeners int) *model.Params {
	p := model.Default()
	p.HostShards = shards
	p.RouteListeners = listeners
	return &p
}

// TestSKVKeyspaceIdenticalAcrossListenerCounts: the routing plane may move
// parse and routing onto different cores, never change a command's effect.
// The same scripted workload at 1, 2 and 4 listeners (4 shards) must leave
// identical keyspaces on the master and every slave, and each listener
// count must reproduce its own metric snapshots byte-for-byte on a second
// identical run.
func TestSKVKeyspaceIdenticalAcrossListenerCounts(t *testing.T) {
	runOnce := func(listeners int) (*Cluster, map[string]string) {
		c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 0, Seed: 31,
			Params: routeParams(4, listeners), SKV: core.DefaultConfig()})
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatalf("listeners=%d: sync failed", listeners)
		}
		randomWriter(t, c, 77, 2000)
		return c, fingerprint(c.Master.Store())
	}
	var ref *store.Store
	for _, listeners := range []int{1, 2, 4} {
		c, fp := runOnce(listeners)
		if len(fp) == 0 {
			t.Fatalf("listeners=%d: master keyspace empty", listeners)
		}
		if ref == nil {
			ref = c.Master.Store()
		}
		requireSameKeyspace(t, fmt.Sprintf("listeners=%d master vs the listeners=1 master", listeners), ref, c.Master.Store())
		for i, s := range c.Slaves {
			requireSameKeyspace(t, fmt.Sprintf("listeners=%d slave%d", listeners, i), c.Master.Store(), s.Store())
		}
		// Determinism: an identical second run renders identical snapshots.
		c2, _ := runOnce(listeners)
		if c.SnapshotsString() != c2.SnapshotsString() {
			t.Fatalf("listeners=%d: metric snapshots differ across identical runs", listeners)
		}
	}
}

// TestRouteListenersOffAndOneIdentical pins the legacy contract:
// RouteListeners = 0 and RouteListeners = 1 are both "routing plane off",
// and must render byte-identical snapshots — the dispatch-owned pipeline
// unchanged from before the routing plane existed.
func TestRouteListenersOffAndOneIdentical(t *testing.T) {
	runOnce := func(listeners int) string {
		c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 0, Seed: 31,
			Params: routeParams(4, listeners), SKV: core.DefaultConfig()})
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatalf("listeners=%d: sync failed", listeners)
		}
		randomWriter(t, c, 77, 2000)
		if n := c.Master.NumRouteListeners(); n != 0 {
			t.Fatalf("listeners=%d built %d routing procs, want none", listeners, n)
		}
		return c.SnapshotsString()
	}
	if runOnce(0) != runOnce(1) {
		t.Fatal("RouteListeners=0 and =1 diverged — the off state is not unique")
	}
}

// TestRoutedThroughputRelievesDispatch is the point of the tentpole: at 4
// shards the single dispatch core's parse stage is the bottleneck; moving
// parse + routing onto 2 routing cores must clear strictly more operations,
// and the routing cores must actually absorb the front-end work.
func TestRoutedThroughputRelievesDispatch(t *testing.T) {
	run := func(listeners int) Result {
		c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 8, Pipeline: 8,
			Seed: 55, Params: routeParams(4, listeners), SKV: core.DefaultConfig()})
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatalf("listeners=%d: sync failed", listeners)
		}
		return c.Measure(20*sim.Millisecond, 200*sim.Millisecond)
	}
	res1 := run(1)
	res2 := run(2)
	if len(res1.RouteUtils) != 0 {
		t.Fatalf("listeners=1 reported routing cores: %v", res1.RouteUtils)
	}
	if len(res2.RouteUtils) != 2 {
		t.Fatalf("listeners=2 reported %d routing cores", len(res2.RouteUtils))
	}
	for i, u := range res2.RouteUtils {
		if u < 0.05 {
			t.Fatalf("routing core %d idle (%.3f): %v", i, u, res2.RouteUtils)
		}
	}
	if res2.Throughput <= res1.Throughput {
		t.Fatalf("routing plane bought nothing: %.0f ops/s at 2 listeners vs %.0f at 1",
			res2.Throughput, res1.Throughput)
	}
}

// TestChaosScenariosRouted re-runs the failure scenarios with the routing
// plane on: every scenario at (shards=4, listeners=2) and the hardest
// scenario across the rest of the listeners × shards grid;
// TestChaosScenarios holds a routed run to the determinism contract.
func TestChaosScenariosRouted(t *testing.T) {
	for _, s := range ChaosScenarios() {
		s.Config.Params.HostShards, s.Config.Params.RouteListeners = 4, 2
		t.Run(fmt.Sprintf("%s/shards4-listeners2", s.Name), func(t *testing.T) {
			t.Parallel()
			_, h, err := RunScenario(s)
			if err != nil {
				t.Fatalf("convergence failed:\n%v\ntrace:\n%s", err, h.TraceString())
			}
		})
	}
	// The rest of the grid, on the scenario that kills and restarts the
	// master (PSYNC handoff, disown, full resync all exercised). shards=1
	// rows pin that listeners are ignored without a sharded plane.
	grid := []struct{ shards, listeners int }{
		{1, 2}, {1, 4}, {2, 2}, {2, 4}, {4, 4},
	}
	for _, g := range grid {
		for _, s := range ChaosScenarios() {
			if s.Name != "master-restart-split-brain" {
				continue
			}
			s.Config.Params.HostShards, s.Config.Params.RouteListeners = g.shards, g.listeners
			t.Run(fmt.Sprintf("%s/shards%d-listeners%d", s.Name, g.shards, g.listeners), func(t *testing.T) {
				t.Parallel()
				_, h, err := RunScenario(s)
				if err != nil {
					t.Fatalf("convergence failed:\n%v\ntrace:\n%s", err, h.TraceString())
				}
			})
		}
	}
}

// TestRoutedBatchedDoorbellTimer pins the exact configuration the routed
// ext-shards rows run: routing listeners with replication batching on a
// doorbell-coalescing timer (ReplBatchMaxCmds=8, ReplBatchMaxDelay=5µs)
// instead of the quiesce flush — the quiesce point degenerates to batch=1
// on the demoted merge core. The coalesced stream must leave the same
// keyspace as the unbatched routed run, actually amortize doorbells, keep
// WAIT live (bytes parked behind the timer flush within the delay, never
// deadlock), and stay deterministic across identical runs.
func TestRoutedBatchedDoorbellTimer(t *testing.T) {
	timerParams := func() *model.Params {
		p := routeParams(4, 2)
		p.ReplBatchMaxCmds = 8
		p.ReplBatchMaxDelay = 5 * sim.Microsecond
		return p
	}
	runOnce := func(p *model.Params) *Cluster {
		c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 0, Seed: 31,
			Params: p, SKV: core.DefaultConfig()})
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatal("sync failed")
		}
		randomWriter(t, c, 77, 2000)
		return c
	}

	ref := fingerprint(runOnce(routeParams(4, 2)).Master.Store())
	c := runOnce(timerParams())
	fp := fingerprint(c.Master.Store())
	if len(fp) == 0 || len(fp) != len(ref) {
		t.Fatalf("master has %d keys, unbatched routed run had %d", len(fp), len(ref))
	}
	for k, v := range ref {
		if fp[k] != v {
			t.Fatalf("master divergence at %s: %q vs %q", k, fp[k], v)
		}
	}
	for i := range c.Slaves {
		got := fingerprint(c.Slaves[i].Store())
		if len(got) != len(ref) {
			t.Fatalf("slave%d has %d keys, want %d", i, len(got), len(ref))
		}
	}
	g := c.Groups[0]
	// The timer must actually coalesce: strictly fewer doorbells than
	// writes, with every write still offloaded.
	if g.HostKV.ReplReqsSent.Value() >= c.Master.WritesPropagated {
		t.Fatalf("timer coalesced nothing: %d WRs for %d writes",
			g.HostKV.ReplReqsSent.Value(), c.Master.WritesPropagated)
	}
	if g.HostKV.CmdsOffloaded.Value() != c.Master.WritesPropagated {
		t.Fatalf("offloaded %d commands for %d writes",
			g.HostKV.CmdsOffloaded.Value(), c.Master.WritesPropagated)
	}
	// Determinism: identical second run, identical snapshots.
	if c2 := runOnce(timerParams()); c.SnapshotsString() != c2.SnapshotsString() {
		t.Fatal("timer-batched snapshots differ across identical runs")
	}
}

// TestRoutedBatchedWaitLiveness: with the doorbell timer replacing the
// quiesce flush, a write parked in a partial batch still reaches the
// replicas within the coalescing delay — WAIT observes the quorum instead
// of deadlocking on bytes held back by the batcher.
func TestRoutedBatchedWaitLiveness(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ProgressInterval = 50 * sim.Millisecond
	p := routeParams(4, 2)
	p.ReplBatchMaxCmds = 8
	p.ReplBatchMaxDelay = 5 * sim.Microsecond
	p.ProbePeriod = 100 * sim.Millisecond
	p.WaitingTime = 200 * sim.Millisecond
	c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 1, Seed: 34,
		Params: p, SKV: cfg})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
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
		t.Fatal("WAIT never replied under the doorbell timer")
	}
	if got.Type != resp.TypeInteger || got.Int != 2 {
		t.Fatalf("WAIT = %s, want :2", got.String())
	}
}
