package main

import (
	"fmt"

	"skv/internal/backlog"
	"skv/internal/consistency"
	"skv/internal/fabric"
	"skv/internal/metrics"
	"skv/internal/model"
	"skv/internal/rconn"
	"skv/internal/rdma"
	"skv/internal/replstream"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/slots"
	"skv/internal/store"
	"skv/internal/transport"
	"skv/internal/workload"
)

// Layer replays: the traced run feeds the workload's own command stream
// (same generator seed as client 0) through each layer's exported
// functions in isolation and reports host ns and allocations per call.
// Multiplied by the calls per op the registries counted in the measure
// window, that is the layer's self time per op.

// replayCalls is how many calls each replay times: enough that a forced GC
// or a scheduler hiccup does not decide the per-call figure.
func replayCalls(o options) int {
	if o.smoke {
		return 500
	}
	return 50_000
}

// stream is the workload's command stream, generated once per traced run.
type stream struct {
	cmds  [][]byte   // RESP-encoded commands, in the workload's GET/SET mix
	argvs [][][]byte // the same, parsed
	keys  [][]byte
	// A SET and a GET of every key in the stream: both op kinds are replayed
	// on every workload so store and replstream costs compare across them.
	sets, gets [][][]byte
	value      []byte
}

func newStream(gen *workload.Generator, n int) *stream {
	s := &stream{value: kvValue(gen.ValueSize)}
	for i := 0; i < n; i++ {
		cmd, _, key := gen.NextKeyed()
		var r resp.Reader
		r.Feed(cmd)
		argv, _, _ := r.ReadCommand()
		s.cmds = append(s.cmds, cmd)
		s.argvs = append(s.argvs, argv)
		s.keys = append(s.keys, []byte(key))
		s.sets = append(s.sets, [][]byte{[]byte("SET"), []byte(key), s.value})
		s.gets = append(s.gets, [][]byte{[]byte("GET"), []byte(key)})
	}
	return s
}

// cost is a replay's result per call: host ns, allocations, and the
// lower-layer work one call caused (engine events, fabric messages, RDMA
// work requests), which is what lets nested layers be reported exclusive
// of their children.
type cost struct {
	ns, allocs         float64
	events, fmsgs, wrs float64
}

// replaySim schedules and runs no-op events with the queue held at the
// depth the workload was observed to keep: the DES kernel's own cost.
func replaySim(n, depth int) cost {
	eng := sim.New(1)
	remaining := n
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			eng.After(sim.Duration(1+remaining%97)*sim.Microsecond, tick)
		}
	}
	for i := 0; i < depth; i++ {
		eng.After(sim.Duration(i+1)*sim.Microsecond, tick)
	}
	var c cost
	c.ns, c.allocs = timeCalls(n, func() { eng.Run(0) })
	c.events = 1
	return c
}

// testbed is a two-machine fabric with registries on every layer, so a
// replay can count the lower-layer work it causes.
type testbed struct {
	p    model.Params
	eng  *sim.Engine
	net  *fabric.Network
	a, b *fabric.Machine
	fab  *metrics.Registry
	dev  *metrics.Registry
}

func newTestbed() *testbed {
	t := &testbed{p: model.Default(), eng: sim.New(31)}
	t.net = fabric.New(t.eng, &t.p)
	t.fab = metrics.NewRegistry("fabric", t.eng.Now)
	t.dev = metrics.NewRegistry("dev", t.eng.Now)
	t.net.SetMetrics(t.fab)
	t.a = t.net.NewMachine("a", false)
	t.b = t.net.NewMachine("b", false)
	return t
}

func (t *testbed) wrs() uint64 {
	var n uint64
	for _, name := range workRequests {
		n += t.dev.Counter(name).Value()
	}
	return n
}

// measure times fn (n calls) and fills in the lower-layer counts per call.
func (t *testbed) measure(n int, fn func()) cost {
	ev, fm, wr := t.eng.Processed, t.fab.Counter("fabric.tx.msgs").Value(), t.wrs()
	var c cost
	c.ns, c.allocs = timeCalls(n, fn)
	c.events = float64(t.eng.Processed-ev) / float64(n)
	c.fmsgs = float64(t.fab.Counter("fabric.tx.msgs").Value()-fm) / float64(n)
	c.wrs = float64(t.wrs()-wr) / float64(n)
	return c
}

// replayFabric sends size-byte messages host to host and runs their
// delivery.
func replayFabric(n, size int) cost {
	t := newTestbed()
	t.b.Host.Handle(func(fabric.Message) {})
	return t.measure(n, func() {
		for i := 0; i < n; i++ {
			t.net.Send(t.a.Host, t.b.Host, size, nil, 0)
			if i%64 == 63 {
				t.eng.Run(0)
			}
		}
		t.eng.Run(0)
	})
}

// replayRDMA is a WRITE_WITH_IMM ping-pong with CQ notification, the
// ib_write_lat shape bench.writeLatency uses.
func replayRDMA(n, size int) cost {
	t := newTestbed()
	sdev := rdma.NewDevice(t.net, t.a.Host, sim.NewCore(t.eng, "s", t.p.HostCoreSpeed))
	ddev := rdma.NewDevice(t.net, t.b.Host, sim.NewCore(t.eng, "d", t.p.HostCoreSpeed))
	sdev.SetMetrics(t.dev)
	ddev.SetMetrics(t.dev)
	var qp, peer *rdma.QP
	var dialErr error
	ddev.Listen(1, func(q *rdma.QP) { peer = q })
	sdev.Connect(t.b.Host, 1, nil, nil, func(q *rdma.QP, err error) { qp, dialErr = q, err })
	t.eng.Run(0)
	if dialErr != nil || qp == nil || peer == nil {
		panic(fmt.Sprintf("rdma replay: connect failed on a lossless fabric: %v", dialErr))
	}
	mr := ddev.AllocPD().RegisterMR(size + 64)
	data := make([]byte, size)
	done := 0
	var post func()
	peer.RecvCQ.OnNotify(func() {
		peer.RecvCQ.Poll(0)
		if done++; done < n {
			post()
		}
	})
	post = func() {
		peer.PostRecv(rdma.RecvWR{})
		peer.RecvCQ.RequestNotify()
		_ = qp.PostSend(rdma.SendWR{Op: rdma.OpWriteImm, Data: data, RemoteKey: mr.RKey(), Imm: uint32(size)})
	}
	c := t.measure(n, func() {
		t.eng.After(0, post)
		t.eng.Run(0)
	})
	if done != n {
		panic(fmt.Sprintf("rdma replay: %d of %d writes completed", done, n))
	}
	return c
}

// replayRconn echoes the workload's commands over a Stack.Dial/Listen
// connection; one call is one message in one direction.
func replayRconn(s *stream) cost {
	t := newTestbed()
	mk := func(m *fabric.Machine) *rconn.Stack {
		core := sim.NewCore(t.eng, m.Host.Name(), t.p.HostCoreSpeed)
		st := rconn.New(t.net, m.Host, sim.NewProc(t.eng, core, t.p.CompChannelWake))
		st.Device().SetMetrics(t.dev)
		return st
	}
	cli, srv := mk(t.a), mk(t.b)
	srv.Listen(1, func(c transport.Conn) { c.SetHandler(func(d []byte) { c.Send(d) }) })
	var conn transport.Conn
	var dialErr error
	cli.Dial(t.b.Host, 1, func(c transport.Conn, err error) { conn, dialErr = c, err })
	t.eng.Run(0)
	if dialErr != nil || conn == nil {
		panic(fmt.Sprintf("rconn replay: dial failed on a lossless fabric: %v", dialErr))
	}
	n, done := len(s.cmds), 0
	conn.SetHandler(func([]byte) {
		if done++; done < n {
			conn.Send(s.cmds[done])
		}
	})
	c := t.measure(2*n, func() {
		conn.Send(s.cmds[0])
		t.eng.Run(0)
	})
	if done != n {
		panic(fmt.Sprintf("rconn replay: %d of %d echoes completed", done, n))
	}
	return c
}

// pure times n calls of a layer function that schedules nothing.
func pure(n int, fn func()) cost {
	var c cost
	c.ns, c.allocs = timeCalls(n, fn)
	return c
}

func replayRespParse(s *stream) cost {
	return pure(len(s.cmds), func() {
		var r resp.Reader
		for _, cmd := range s.cmds {
			r.Feed(cmd)
			if _, ok, err := r.ReadCommand(); !ok || err != nil {
				panic("resp replay: generator produced an unparsable command")
			}
		}
	})
}

func replayRespEncode(s *stream) cost {
	return pure(len(s.argvs), func() {
		for _, argv := range s.argvs {
			_ = resp.EncodeCommandBytes(argv...)
		}
	})
}

// replayStore executes the stream's SETs or GETs on a preloaded store.
func replayStore(s *stream, keySpace int, argvs [][][]byte) cost {
	st := store.New(store.Options{Seed: 1})
	for i := 0; i < keySpace; i++ {
		st.Exec(0, [][]byte{[]byte("SET"), []byte(kvKey(i)), s.value})
	}
	return pure(len(argvs), func() {
		for _, argv := range argvs {
			st.Exec(0, argv)
		}
	})
}

// replayReplstream appends the stream's SETs through a Writer batching as
// the workload's deployment does, then decodes the flushed batches through
// an Applier with a no-op apply (the store's share is store.set_ns).
func replayReplstream(s *stream, maxCmds int) (appendCost, applyCost cost) {
	var batches [][]byte
	w := replstream.NewWriter(replstream.WriterConfig{
		Backlog: backlog.New(1 << 20), MaxCmds: maxCmds,
		Flush: func(b replstream.Batch) { batches = append(batches, b.Data) },
	})
	appendCost = pure(len(s.sets), func() {
		for _, argv := range s.sets {
			w.Append(0, argv)
		}
		w.Flush()
	})
	a := replstream.NewApplier(func(int, [][]byte) {})
	applyCost = pure(len(s.sets), func() {
		for _, b := range batches {
			a.Feed(b)
		}
	})
	if a.Applied != uint64(len(s.sets)) {
		panic(fmt.Sprintf("replstream replay: applied %d of %d", a.Applied, len(s.sets)))
	}
	return appendCost, applyCost
}

// replayGate parks one write reply per client and releases them by
// watermark, the quorum path's bookkeeping on the master.
func replayGate(n, clients int) cost {
	t := consistency.NewTracker(nil)
	fired := 0
	fire := func() { fired++ }
	c := pure(n, func() {
		off := int64(0)
		for i := 0; i < n; i += clients {
			for cl := 0; cl < clients; cl++ {
				off += 100
				t.ParkWrite(uint64(cl), off, 2, fire)
			}
			t.ReleaseUpTo(off)
		}
	})
	if t.Parked() != 0 {
		panic("consistency replay: parked writes left behind")
	}
	return c
}

func replaySlots(s *stream) cost {
	return pure(len(s.keys), func() {
		for _, k := range s.keys {
			_ = slots.Slot(k)
		}
	})
}

func replayGenerator(gen *workload.Generator, n int) cost {
	return pure(n, func() {
		for i := 0; i < n; i++ {
			gen.NextKeyed()
		}
	})
}
