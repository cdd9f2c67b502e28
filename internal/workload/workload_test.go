package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"skv/internal/fabric"
	"skv/internal/model"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/slots"
	"skv/internal/tcpsim"
	"skv/internal/transport"
)

func TestGeneratorPureSet(t *testing.T) {
	g := NewGenerator(1, 1000, 64, 1.0, false)
	for i := 0; i < 100; i++ {
		cmd, op := g.Next()
		if op != OpSet {
			t.Fatal("pure-SET generator emitted a GET")
		}
		var r resp.Reader
		r.Feed(cmd)
		argv, ok, err := r.ReadCommand()
		if err != nil || !ok || len(argv) != 3 {
			t.Fatalf("bad command: %q", cmd)
		}
		if string(argv[0]) != "SET" || len(argv[2]) != 64 {
			t.Fatalf("argv %q value len %d", argv[0], len(argv[2]))
		}
		if !strings.HasPrefix(string(argv[1]), "key:") {
			t.Fatalf("key %q", argv[1])
		}
	}
}

func TestGeneratorPureGet(t *testing.T) {
	g := NewGenerator(2, 1000, 64, 0.0, false)
	for i := 0; i < 100; i++ {
		cmd, op := g.Next()
		if op != OpGet {
			t.Fatal("pure-GET generator emitted a SET")
		}
		if !bytes.Contains(cmd, []byte("GET")) {
			t.Fatalf("command %q", cmd)
		}
	}
}

func TestGeneratorMixedRatio(t *testing.T) {
	g := NewGenerator(3, 1000, 8, 0.3, false)
	sets := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if _, op := g.Next(); op == OpSet {
			sets++
		}
	}
	ratio := float64(sets) / n
	if ratio < 0.27 || ratio > 0.33 {
		t.Fatalf("SET ratio %.3f, want ≈0.30", ratio)
	}
}

func TestGeneratorKeySpaceBounded(t *testing.T) {
	g := NewGenerator(4, 10, 8, 1.0, false)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		cmd, _ := g.Next()
		var r resp.Reader
		r.Feed(cmd)
		argv, _, _ := r.ReadCommand()
		seen[string(argv[1])] = true
	}
	if len(seen) > 10 {
		t.Fatalf("keyspace 10 produced %d distinct keys", len(seen))
	}
	if len(seen) < 8 {
		t.Fatalf("uniform generator covered only %d/10 keys", len(seen))
	}
}

func TestGeneratorZipfian(t *testing.T) {
	g := NewGenerator(5, 10_000, 8, 1.0, true)
	counts := map[string]int{}
	const n = 20_000
	for i := 0; i < n; i++ {
		cmd, _ := g.Next()
		var r resp.Reader
		r.Feed(cmd)
		argv, _, _ := r.ReadCommand()
		counts[string(argv[1])]++
	}
	// Zipf: the hottest key should take a large share; uniform would give
	// each key ≈2 hits.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < n/20 {
		t.Fatalf("hottest key hit %d/%d times; not Zipfian", max, n)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(7, 100, 16, 0.5, true)
	b := NewGenerator(7, 100, 16, 0.5, true)
	for i := 0; i < 200; i++ {
		ca, oa := a.Next()
		cb, ob := b.Next()
		if oa != ob || !bytes.Equal(ca, cb) {
			t.Fatal("same-seed generators diverged")
		}
	}
}

// TestGeneratorKeysAndCost: keys are "key:%010d" exactly — wider numbers keep
// all their digits — drawn as before (one Float64 for the op, one Intn for
// the key), and the key AppendNext reports is the one its command carries.
// What an operation costs is TestGeneratorAllocations'.
func TestGeneratorKeysAndCost(t *testing.T) {
	for _, k := range []uint64{0, 7, 42, 9_999_999_999, 10_000_000_000, 1<<64 - 1} {
		b, at := appendKeyBulk(nil, k)
		key := fmt.Sprintf("key:%010d", k)
		if got, want := string(b), fmt.Sprintf("$%d\r\n%s\r\n", len(key), key); got != want {
			t.Errorf("appendKeyBulk(%d) = %q, want %q", k, got, want)
		}
		if got, want := string(b[at:len(b)-2]), key; got != want {
			t.Errorf("appendKeyBulk(%d) put the key at %q, want %q", k, got, want)
		}
	}
	g := NewGenerator(11, 10_000, 64, 0.5, false)
	twin := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		cmd, op, key := g.NextKeyed()
		wantOp := OpGet
		if twin.Float64() < 0.5 {
			wantOp = OpSet
		}
		wantKey := fmt.Sprintf("key:%010d", twin.Intn(10_000))
		if op != wantOp || key != wantKey || !bytes.Contains(cmd, []byte("$14\r\n"+wantKey+"\r\n")) {
			t.Fatalf("op %d: %v %q %q, want %v %q", i, op, key, cmd, wantOp, wantKey)
		}
	}
	a, b := NewGenerator(5, 10_000, 64, 0.5, true), NewGenerator(5, 10_000, 64, 0.5, true)
	var buf []byte
	for i := 0; i < 1000; i++ {
		cmd, op, key := a.NextKeyed()
		got, gotOp, gotKey := b.AppendNext(buf[:0])
		if !bytes.Equal(got, cmd) || gotOp != op || string(gotKey) != key {
			t.Fatalf("op %d: AppendNext gave %v %q %q, NextKeyed %v %q %q", i, gotOp, gotKey, got, op, key, cmd)
		}
		if at := bytes.Index(got, gotKey); &got[at] != &gotKey[0] {
			t.Fatalf("op %d: the key is not a sub-slice of the command", i)
		}
		buf = got
	}
}

// TestGeneratorAllocations: appending into a buffer handed back from the
// last command allocates nothing; NextKeyed, its owned-result wrapper, costs
// the command and the key string.
func TestGeneratorAllocations(t *testing.T) {
	g := NewGenerator(11, 10_000, 64, 0.5, false)
	buf := make([]byte, 0, g.CmdCap())
	if n := testing.AllocsPerRun(1000, func() { buf, _, _ = g.AppendNext(buf[:0]) }); n != 0 {
		t.Fatalf("AppendNext allocated %.1f times per operation, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.NextKeyed() }); n > 2 {
		t.Fatalf("NextKeyed allocated %.1f times per operation, want <= 2", n)
	}
}

// deployments are the scripted worlds every client test runs against: the
// client is one type, so each behaviour must hold with and without a table.
var deployments = []struct {
	name   string
	groups int
	ranges []slots.Range // nil with two groups = an even split
	// moved is the MOVED count per window slot the bootstrap must cost: the
	// client starts with every slot on its seed, group 0.
	moved uint64
}{
	{name: "no table", groups: 1},
	{name: "two groups", groups: 2, moved: 1},
	// Group 0 owns nothing: the seed answers MOVED once and is never used again.
	{name: "moved once", groups: 2, ranges: []slots.Range{{Start: 0, End: slots.NumSlots - 1, Group: 1}}, moved: 1},
}

// world is one scripted deployment: per group, a server that answers +OK to
// every command whose key it owns and MOVED to the rest.
type world struct {
	eng   *sim.Engine
	p     model.Params
	net   *fabric.Network
	table *slots.Map // nil for a single group
	seed  string
	// down makes every server swallow what it receives, like a crashed
	// process behind live endpoints.
	down    bool
	clients int
}

func newWorld(t *testing.T, seed int64, groups int, ranges []slots.Range) *world {
	t.Helper()
	w := &world{eng: sim.New(seed), p: model.Default()}
	w.net = fabric.New(w.eng, &w.p)
	var addrs []string
	for g := 0; g < groups; g++ {
		addrs = append(addrs, w.net.NewMachine(fmt.Sprintf("srv%d", g), false).Host.Name())
	}
	w.seed = addrs[0]
	if groups > 1 {
		table, err := slots.NewMap(groups, ranges, addrs)
		if err != nil {
			t.Fatal(err)
		}
		w.table = table
	}
	for g, addr := range addrs {
		ep := w.net.EndpointByName(addr)
		proc := sim.NewProc(w.eng, sim.NewCore(w.eng, addr, 1.0), w.p.TCPWakeup)
		tcpsim.New(w.net, ep, proc).Listen(6379, func(conn transport.Conn) {
			var r resp.Reader
			var argv [][]byte
			conn.SetHandler(func(data []byte) {
				if w.down {
					return
				}
				r.Feed(data)
				for {
					var ok bool
					var err error
					argv, ok, err = r.BorrowCommand(argv)
					if err != nil || !ok {
						return
					}
					if w.table != nil {
						slot := slots.Slot(argv[1])
						if owner := w.table.Owner(slot); owner != g {
							conn.Send(resp.AppendError(nil, slots.MovedMessage(slot, w.table.Addr(owner), 6379)))
							continue
						}
					}
					conn.Send(okReply)
				}
			})
		})
	}
	return w
}

var okReply = resp.AppendSimple(nil, "OK")

// client builds a pure-SET client on its own machine.
func (w *world) client(genSeed int64, pipeline int) KV {
	m := w.net.NewMachine(fmt.Sprintf("cli%d", w.clients), false)
	w.clients++
	return New(m.Host.Name(), Env{
		Eng: w.eng, Params: &w.p, EP: m.Host, Gen: NewGenerator(genSeed, 100, 32, 1.0, false),
		MakeStack: func(ep *fabric.Endpoint, proc *sim.Proc) transport.Stack { return tcpsim.New(w.net, ep, proc) },
		Wakeup:    w.p.ClientWakeup, Port: 6379, Resolve: w.net.EndpointByName, Table: w.table,
	}, Options{Addr: w.seed, Pipeline: pipeline})
}

// TestClientCycleAllocations: once its windows are full, the closed-loop
// client sends and completes requests without allocating — each request is
// generated into the buffer of the one that just completed, and each reply
// is borrowed from the connection's reader — and so does the scripted world
// it runs against.
func TestClientCycleAllocations(t *testing.T) {
	w := newWorld(t, 9, 1, nil)
	cl := w.client(11, 4)
	cl.Start()
	w.eng.Run(sim.Time(10 * sim.Millisecond))
	done := cl.Stats().Done
	if n := testing.AllocsPerRun(100, func() { w.eng.Run(w.eng.Now().Add(sim.Millisecond)) }); n != 0 {
		t.Fatalf("1ms of closed-loop requests allocated %.1f times, want 0", n)
	}
	if ops := cl.Stats().Done - done; ops < 1000 {
		t.Fatalf("only %d requests completed over the measured 101ms", ops)
	}
}

// TestClientClosedLoop runs a client against the scripted servers and checks
// the closed-loop accounting, the routing counters, and that a stopped,
// drained client leaves nothing scheduled.
func TestClientClosedLoop(t *testing.T) {
	for _, d := range deployments {
		t.Run(d.name, func(t *testing.T) {
			w := newWorld(t, 9, d.groups, d.ranges)
			cl := w.client(11, 1)
			cl.Start()
			w.eng.Run(sim.Time(100 * sim.Millisecond))
			cl.Stop()
			w.eng.Run(0) // to quiescence: returns only if the client left no timer running
			if n := w.eng.Pending(); n != 0 {
				t.Fatalf("stopped client left %d events scheduled", n)
			}

			st := cl.Stats()
			if st.Done < 1000 {
				t.Fatalf("closed loop completed only %d ops in 100ms", st.Done)
			}
			if st.Sent != st.Done {
				t.Fatalf("closed-loop accounting after the drain: sent=%d done=%d", st.Sent, st.Done)
			}
			if cl.Histogram().Count() == 0 {
				t.Fatal("no latencies recorded")
			}
			if st.ErrReplies != 0 {
				t.Fatalf("unexpected error replies: %d", st.ErrReplies)
			}
			if mean := cl.Histogram().Mean(); mean <= 0 || mean > sim.Duration(sim.Millisecond) {
				t.Fatalf("implausible mean latency %v", mean)
			}
			if st.Moved != d.moved || st.MapRefreshes != d.moved {
				t.Fatalf("moved=%d refreshes=%d, want %d each", st.Moved, st.MapRefreshes, d.moved)
			}
			if st.Redials != 0 {
				t.Fatalf("%d redials in a fault-free run", st.Redials)
			}
			if len(st.GroupDone) != d.groups {
				t.Fatalf("GroupDone has %d groups, want %d", len(st.GroupDone), d.groups)
			}
			var sum uint64
			for g, n := range st.GroupDone {
				sum += n
				if owns := w.table == nil || w.table.Count(g) > 0; owns != (n > 0) {
					t.Fatalf("group %d served %d ops (owns slots: %v)", g, n, owns)
				}
			}
			if sum != st.Done {
				t.Fatalf("GroupDone sums to %d, Done is %d", sum, st.Done)
			}
		})
	}
}

func TestClientWarmupDiscardsSamples(t *testing.T) {
	for _, d := range deployments {
		t.Run(d.name, func(t *testing.T) {
			w := newWorld(t, 10, d.groups, d.ranges)
			cl := w.client(11, 1)
			cl.SetWarmup(sim.Time(50 * sim.Millisecond))
			cl.Start()
			w.eng.Run(sim.Time(100 * sim.Millisecond))
			if cl.Histogram().Count() >= cl.Stats().Done {
				t.Fatalf("warm-up did not discard: hist=%d done=%d", cl.Histogram().Count(), cl.Stats().Done)
			}
			if cl.Histogram().Count() == 0 {
				t.Fatal("no post-warmup samples")
			}
		})
	}
}

func TestClientPipelining(t *testing.T) {
	for _, d := range deployments {
		t.Run(d.name, func(t *testing.T) {
			w := newWorld(t, 12, d.groups, d.ranges)
			// Depth 1 then depth 8, on fresh clients of the same servers.
			run := func(genSeed int64, depth int) KV {
				cl := w.client(genSeed, depth)
				cl.Start()
				w.eng.RunFor(50 * sim.Millisecond)
				cl.Stop()
				w.eng.RunFor(10 * sim.Millisecond)
				return cl
			}
			d1, d8 := run(13, 1), run(14, 8)
			if d8.Stats().Done <= d1.Stats().Done {
				t.Fatalf("pipelining did not help: depth1=%d depth8=%d", d1.Stats().Done, d8.Stats().Done)
			}
			if d8.Histogram().Count() == 0 {
				t.Fatal("no latencies recorded under pipelining")
			}
			// The window is per group: the bootstrap costs one MOVED per slot
			// of every window the seed does not own.
			if got, want := d8.Stats().Moved, 8*d.moved; got != want {
				t.Fatalf("depth 8 absorbed %d MOVED, want %d", got, want)
			}
		})
	}
}

// TestClientResumesAfterServerRestart is the recovery the plain closed-loop
// client never had: a single-group client whose server goes silent and comes
// back re-dials and keeps completing operations.
func TestClientResumesAfterServerRestart(t *testing.T) {
	w := newWorld(t, 15, 1, nil)
	cl := w.client(16, 4)
	cl.Start()
	w.eng.RunFor(50 * sim.Millisecond)
	w.down = true
	w.eng.RunFor(400 * sim.Millisecond)
	stalled := cl.Stats().Done
	if stalled == 0 {
		t.Fatal("nothing completed before the crash")
	}
	w.down = false
	w.eng.RunFor(600 * sim.Millisecond)
	st := cl.Stats()
	if st.Done < stalled+1000 {
		t.Fatalf("client did not resume after the restart: done %d → %d", stalled, st.Done)
	}
	if st.Redials == 0 {
		t.Fatal("the recovery was not counted as a redial")
	}
	if st.ErrReplies != 0 {
		t.Fatalf("unexpected error replies: %d", st.ErrReplies)
	}
}
