package cluster

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"testing"

	"skv/internal/consistency"
	"skv/internal/core"
	"skv/internal/model"
	"skv/internal/netserver"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/slots"
)

// allocKeys and allocValueSize are the perf ledger's key space and value
// size: every key is preloaded, so a SET overwrites a live value of the same
// size.
const allocKeys, allocValueSize = 10_000, 64

func allocValue() []byte {
	value := make([]byte, allocValueSize)
	for i := range value {
		value[i] = 'a' + byte(i%26)
	}
	return value
}

// fig11 is the Fig 11 deployment (SKV, 1 master + 3 slaves, 8 clients) at
// the given GET ratio and write consistency.
func fig11(getRatio float64, cons ConsistencyOpts) Config {
	return Config{Kind: KindSKV, Slaves: 3, Clients: 8, SKV: core.DefaultConfig(), GetRatio: getRatio, Consistency: cons}
}

// allocsPerOp builds cfg at seed 7 over the ledger's preloaded key space and
// reports heap allocations per completed operation over a 50 ms window after
// a 20 ms warm-up.
func allocsPerOp(t *testing.T, cfg Config) float64 {
	t.Helper()
	cfg.Seed, cfg.KeySpace, cfg.ValueSize = 7, allocKeys, allocValueSize
	c := Build(cfg)
	value := allocValue()
	for i := 0; i < allocKeys; i++ {
		key := []byte(fmt.Sprintf("key:%010d", i))
		g := c.Groups[0]
		if c.SlotMap != nil {
			g = c.Groups[c.SlotMap.Owner(slots.Slot(key))]
		}
		g.Master.Store().Exec(0, [][]byte{[]byte("SET"), key, value})
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
	t.Logf("%.3f allocations per operation over %d ops", perOp, res.Ops)
	return perOp
}

// TestReplicatedSetAllocationBudget is the end-to-end guard over the write
// path: one replicated SET — client encode, fabric, verbs, master parse and
// execute, offload doorbell, NIC fan-out, three slave applies, the reply —
// allocates nothing of its own when it overwrites a live value of the same
// size: the client generates into the buffer of the request it just
// completed and borrows its reply, the master borrows the argv and builds the
// reply in the connection's scratch, and the replication batch is lent to
// the offload and reused. What is left (0.06 at seed 7) is the transport's
// occasional credit frame and SEND arrival copy. It was 139 when every event,
// message, work request and frame was allocated afresh, 39 while each of the
// four stores built a key string, an object, an sds and a reply per SET, and
// 6.05 while the client, the argv, the reply and the batch were allocated per
// request.
func TestReplicatedSetAllocationBudget(t *testing.T) {
	if perOp := allocsPerOp(t, fig11(0, ConsistencyOpts{})); perOp > 0.2 {
		t.Fatalf("a replicated SET costs %.3f allocations, budget 0.2", perOp)
	}
}

// TestReplicatedQuorumSetAllocationBudget is the same SET acknowledged at
// quorum W=2: its reply parks as a value record holding the connection's
// held copy and is released through the callback the server bound once; the
// gate rides the replication request, and the slaves' progress reports and
// the NIC's release watermark are built in their senders' scratch frames and
// posted through callbacks bound once. It was 36.7 while the gate was a frame
// of its own and every report, ping and release allocated its frame and its
// closure, and 8.08 while the parked reply was a closure and a record.
func TestReplicatedQuorumSetAllocationBudget(t *testing.T) {
	if perOp := allocsPerOp(t, fig11(0, ConsistencyOpts{Level: consistency.Quorum, Quorum: 2})); perOp > 0.2 {
		t.Fatalf("a quorum-acknowledged SET costs %.3f allocations, budget 0.2", perOp)
	}
}

// TestReplicatedGetAllocationBudget is its read-side twin: a GET served by
// the master appends its reply to the connection's scratch, and allocates
// nothing either (6.02 while the store built each reply).
func TestReplicatedGetAllocationBudget(t *testing.T) {
	if perOp := allocsPerOp(t, fig11(1, ConsistencyOpts{})); perOp > 0.1 {
		t.Fatalf("a GET costs %.3f allocations, budget 0.1", perOp)
	}
}

// TestClusterMixedAllocationBudget is the ledger's cluster-mixed shape: two
// groups of a master and a slave, four shards behind two routing procs,
// replication batches of 8 with a 5 µs doorbell timer, 8 clients × pipeline 8
// of 50/50 Zipfian GET/SET. A command that crosses to a shard core still
// pays its handoff: the argv copy (header and bytes) and the two closures
// that carry it there and back.
func TestClusterMixedAllocationBudget(t *testing.T) {
	p := model.Default()
	p.HostShards, p.RouteListeners = 4, 2
	p.ReplBatchMaxCmds, p.ReplBatchMaxDelay = 8, 5*sim.Microsecond
	cfg := Config{Kind: KindSKV, Clients: 8, Pipeline: 8, GetRatio: 0.5, Zipf: true, Params: &p,
		SKV: core.DefaultConfig(), Cluster: ClusterOpts{Masters: 2, SlavesPerMaster: 1}}
	if perOp := allocsPerOp(t, cfg); perOp > 4.5 {
		t.Fatalf("a cluster-mixed operation costs %.3f allocations, budget 4.5", perOp)
	}
}

// TestNetserverLoopbackAllocationBudget is the real server's pipelined loop
// over 127.0.0.1: one connection with 16 commands in flight, 50/50 GET/SET of
// preloaded keys, the client writing pre-encoded batches and borrowing the
// replies. Server and client allocate nothing per command between them.
func TestNetserverLoopbackAllocationBudget(t *testing.T) {
	const depth, batches, rounds = 16, 64, 2000
	srv, err := netserver.New(netserver.Options{Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	value := allocValue()
	for i := 0; i < allocKeys; i++ {
		srv.Store().Exec(0, [][]byte{[]byte("SET"), []byte(fmt.Sprintf("key:%010d", i)), value})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	reqs := make([][]byte, batches)
	for b := range reqs {
		for i := 0; i < depth; i++ {
			key := []byte(fmt.Sprintf("key:%010d", (b*depth+i*7919)%allocKeys))
			if i%2 == 0 {
				reqs[b] = resp.AppendCommand(reqs[b], [][]byte{[]byte("SET"), key, value})
			} else {
				reqs[b] = resp.AppendCommand(reqs[b], [][]byte{[]byte("GET"), key})
			}
		}
	}
	in := bufio.NewReaderSize(conn, 64<<10)
	buf := make([]byte, 64<<10)
	var r resp.Reader
	round := func(b int) {
		if _, err := conn.Write(reqs[b%batches]); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < depth; {
			v, ok, err := r.BorrowValue()
			if err != nil || (ok && v.IsError()) {
				t.Fatalf("reply %d: %v %v", got, v, err)
			}
			if ok {
				got++
				continue
			}
			n, err := in.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			r.Feed(buf[:n])
		}
	}
	for b := 0; b < batches; b++ {
		round(b)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := 0; b < rounds; b++ {
		round(b)
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.Mallocs-before.Mallocs) / float64(rounds*depth)
	t.Logf("%.4f allocations per command over %d commands", perOp, rounds*depth)
	if perOp > 0.01 {
		t.Fatalf("a pipelined loopback command costs %.4f allocations, budget 0.01", perOp)
	}
}
