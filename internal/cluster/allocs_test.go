package cluster

import (
	"runtime"
	"testing"

	"skv/internal/core"
	"skv/internal/sim"
)

// TestReplicatedSetAllocationBudget is the end-to-end guard over the
// allocation-free request path: on the Fig 11 deployment (SKV, 1 master +
// 3 slaves, 8 clients, pure SET) one replicated SET — client encode, fabric,
// verbs, master parse and execute, offload doorbell, NIC fan-out, three slave
// applies, the reply — costs at most 45 heap allocations of simulator work.
// It was 139 when every event, message, work request and frame was allocated
// afresh and is about 40 now: the store (5 per SET on each of four nodes),
// the command's argv on each node and the stream/reply encoders.
func TestReplicatedSetAllocationBudget(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Slaves: 3, Clients: 8, Seed: 7, SKV: core.DefaultConfig(), KeySpace: 10_000, ValueSize: 64})
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
	if res.Ops < 10_000 || res.ErrReplies != 0 {
		t.Fatalf("window did %d ops with %d error replies", res.Ops, res.ErrReplies)
	}
	perOp := float64(after.Mallocs-before.Mallocs) / float64(res.Ops)
	t.Logf("%.1f allocations per replicated SET over %d ops", perOp, res.Ops)
	if perOp > 45 {
		t.Fatalf("a replicated SET costs %.1f allocations, budget 45", perOp)
	}
}
