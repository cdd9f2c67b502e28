package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"skv/internal/consistency"
	"skv/internal/core"
	"skv/internal/sim"
)

// allocsPerOp runs the Fig 11 deployment (SKV, 1 master + 3 slaves, 8
// clients, every key preloaded with a 64-byte value as the perf ledger does)
// at the given GET ratio and write consistency and reports heap allocations
// per completed operation over a 50 ms window after a 20 ms warm-up.
func allocsPerOp(t *testing.T, getRatio float64, cons ConsistencyOpts) float64 {
	t.Helper()
	const keys, valueSize = 10_000, 64
	c := Build(Config{Kind: KindSKV, Slaves: 3, Clients: 8, Seed: 7, SKV: core.DefaultConfig(), KeySpace: keys, ValueSize: valueSize, GetRatio: getRatio, Consistency: cons})
	value := make([]byte, valueSize)
	for i := range value {
		value[i] = 'a' + byte(i%26)
	}
	for i := 0; i < keys; i++ {
		c.Master.Store().Exec(0, [][]byte{[]byte("SET"), []byte(fmt.Sprintf("key:%010d", i)), value})
	}
	if !c.AwaitReplication(5 * sim.Second) {
		t.Fatal("slaves never reached steady state")
	}
	// Warm up first (the clients discard samples before the mark), then
	// count mallocs and operations over the same window.
	warm := c.Eng.Now().Add(20 * sim.Millisecond)
	for _, cl := range c.Clients {
		cl.SetWarmup(warm)
	}
	c.StartClients()
	c.Run(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := c.Measure(0, 50*sim.Millisecond)
	runtime.ReadMemStats(&after)
	if res.Ops < 5_000 || res.ErrReplies != 0 {
		t.Fatalf("window did %d ops with %d error replies", res.Ops, res.ErrReplies)
	}
	perOp := float64(after.Mallocs-before.Mallocs) / float64(res.Ops)
	t.Logf("%.2f allocations per operation over %d ops (GET ratio %g)", perOp, res.Ops, getRatio)
	return perOp
}

// TestReplicatedSetAllocationBudget is the end-to-end guard over the write
// path: one replicated SET — client encode, fabric, verbs, master parse and
// execute, offload doorbell, NIC fan-out, three slave applies, the reply —
// costs at most 10 heap allocations of simulator work when it overwrites a
// live value of the same size, which is what it keeps and little else: the
// client's key string and request, the master's argv (header and bytes, kept
// across route → shard → merge → propagate), the next replication batch
// buffer and the client's copy of the reply. It was 139 when every event,
// message, work request and frame was allocated afresh, and 39 while each of
// the four stores built a key string, an object, an sds and a reply per SET,
// each slave copied the argv it was about to execute, and every frame was
// built in a buffer of its own.
func TestReplicatedSetAllocationBudget(t *testing.T) {
	if perOp := allocsPerOp(t, 0, ConsistencyOpts{}); perOp > 10 {
		t.Fatalf("a replicated SET costs %.2f allocations, budget 10", perOp)
	}
}

// TestReplicatedQuorumSetAllocationBudget is the same SET acknowledged at
// quorum W=2: on top of the async write it keeps the parked reply and the
// closure that fires it, and nothing else — the gate rides the replication
// request, the slaves' progress reports and the NIC's release watermark are
// built in their senders' scratch frames and posted through callbacks bound
// once. It was 36.7 while the gate was a frame of its own and every report,
// ping and release allocated its frame and its closure.
func TestReplicatedQuorumSetAllocationBudget(t *testing.T) {
	if perOp := allocsPerOp(t, 0, ConsistencyOpts{Level: consistency.Quorum, Quorum: 2}); perOp > 12 {
		t.Fatalf("a quorum-acknowledged SET costs %.2f allocations, budget 12", perOp)
	}
}

// TestReplicatedGetAllocationBudget is its read-side twin: a GET served by
// the master costs the client's key string and request, the master's argv,
// the reply the store builds and the client's copy of it.
func TestReplicatedGetAllocationBudget(t *testing.T) {
	if perOp := allocsPerOp(t, 1, ConsistencyOpts{}); perOp > 7 {
		t.Fatalf("a GET costs %.2f allocations, budget 7", perOp)
	}
}
