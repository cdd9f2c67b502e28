package server

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"skv/internal/fabric"
	"skv/internal/model"
	"skv/internal/replstream"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/tcpsim"
	"skv/internal/transport"
)

// world wires an engine, fabric and helper constructors for server tests.
type world struct {
	eng *sim.Engine
	net *fabric.Network
	p   *model.Params
}

func newWorld(seed int64) *world {
	eng := sim.New(seed)
	p := model.Default()
	return &world{eng: eng, net: fabric.New(eng, &p), p: &p}
}

// run advances the simulation a bounded slice of virtual time (the cron
// time events keep the queue non-empty forever, so Run(0) would not
// return).
func (w *world) run() { w.eng.Run(w.eng.Now().Add(500 * sim.Millisecond)) }

// build wires a server onto a fresh machine named o.Name; Params, Seed and
// Port default to the world's, the name's hash and 6379.
func (w *world) build(o Options) *Server {
	m := w.net.NewMachine(o.Name, false)
	core := sim.NewCore(w.eng, o.Name+"-core", 1.0)
	proc := sim.NewProc(w.eng, core, w.p.TCPWakeup)
	stack := tcpsim.New(w.net, m.Host, proc)
	if o.Params == nil {
		o.Params = w.p
	}
	if o.Seed == 0 {
		o.Seed = seed(o.Name)
	}
	if o.Port == 0 {
		o.Port = 6379
	}
	return New(o, w.eng, stack, proc)
}

// shaped is the world's cost model with the command pipeline's shape set:
// shards shard procs behind listeners routing procs.
func (w *world) shaped(shards, listeners int) *model.Params {
	p := *w.p
	p.HostShards, p.RouteListeners = shards, listeners
	return &p
}

func (w *world) server(name string, port int) *Server {
	return w.build(Options{Name: name, Port: port})
}

// layout is one shape of the command pipeline. Every scenario that does not
// depend on the shape runs at all of layouts: one shard on the dispatch
// core, four shard cores, four shard cores behind two routing procs.
type layout struct{ shards, listeners int }

var layouts = []layout{{1, 0}, {4, 0}, {4, 2}}

func (l layout) String() string { return fmt.Sprintf("shards=%d,listeners=%d", l.shards, l.listeners) }

// eachLayout runs fn as a subtest per layout, each in a fresh world.
func eachLayout(t *testing.T, seed int64, ls []layout, fn func(t *testing.T, w *world, l layout)) {
	for _, l := range ls {
		t.Run(l.String(), func(t *testing.T) { fn(t, newWorld(seed), l) })
	}
}

// sendPipe writes one pipelined burst, runs d of virtual time and returns
// the replies that arrived.
func (sc *scriptClient) sendPipe(d sim.Duration, pipe []byte) []resp.Value {
	before := len(sc.got)
	sc.w.eng.After(0, func() { sc.conn.Send(pipe) })
	sc.w.eng.Run(sc.w.eng.Now().Add(d))
	return sc.got[before:]
}

// pipeOf encodes commands (space-separated words) as one pipelined burst.
func pipeOf(cmds ...string) []byte {
	var pipe []byte
	for _, c := range cmds {
		pipe = append(pipe, resp.EncodeCommand(strings.Fields(c)...)...)
	}
	return pipe
}

// render shows replies the way the expectations below are written: integers
// as ":n", everything else by its string.
func render(vs []resp.Value) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
		if v.Type == resp.TypeInteger {
			out[i] = fmt.Sprintf(":%d", v.Int)
		}
	}
	return out
}

func seed(name string) int64 {
	var s int64
	for _, c := range name {
		s = s*31 + int64(c)
	}
	return s
}

// scriptClient drives a server over the simulated fabric.
type scriptClient struct {
	w      *world
	conn   transport.Conn
	reader resp.Reader
	got    []resp.Value
}

func (w *world) dial(t *testing.T, srv *Server) *scriptClient {
	t.Helper()
	m := w.net.NewMachine("cli-"+srv.Name()+nextID(), false)
	core := sim.NewCore(w.eng, m.Name+"-core", 1.0)
	proc := sim.NewProc(w.eng, core, w.p.TCPWakeup)
	stack := tcpsim.New(w.net, m.Host, proc)
	sc := &scriptClient{w: w}
	stack.Dial(srv.Stack().Endpoint(), srv.Port(), func(c transport.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		sc.conn = c
		c.SetHandler(func(data []byte) {
			sc.reader.Feed(data)
			for {
				v, ok, err := sc.reader.ReadValue()
				if err != nil || !ok {
					return
				}
				sc.got = append(sc.got, v)
			}
		})
	})
	w.run()
	if sc.conn == nil {
		t.Fatal("client never connected")
	}
	return sc
}

var idCounter int

func nextID() string {
	idCounter++
	return string(rune('a' + idCounter%26))
}

// do sends a command and runs the engine until quiescent, returning the
// last reply received.
func (sc *scriptClient) do(t *testing.T, args ...string) resp.Value {
	t.Helper()
	before := len(sc.got)
	sc.w.eng.After(0, func() { sc.conn.Send(resp.EncodeCommand(args...)) })
	sc.w.eng.Run(sc.w.eng.Now().Add(50 * sim.Millisecond))
	if len(sc.got) <= before {
		t.Fatalf("no reply to %v", args)
	}
	return sc.got[len(sc.got)-1]
}

func TestFullResyncTransfersDataset(t *testing.T) {
	w := newWorld(4)
	master := w.server("m", 6379)
	c := w.dial(t, master)
	for i := 0; i < 50; i++ {
		c.do(t, "SET", "key"+nextID()+string(rune('0'+i%10)), "value")
	}
	preKeys := master.Store().DBSize(0)
	if preKeys == 0 {
		t.Fatal("no keys on master")
	}
	slave := w.server("sl", 6379)
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	if !slave.SyncedWithMaster() {
		t.Fatal("slave did not sync")
	}
	if got := slave.Store().DBSize(0); got != preKeys {
		t.Fatalf("slave keys=%d master=%d after full resync", got, preKeys)
	}
	// Steady state: a new write reaches the slave.
	c.do(t, "SET", "fresh", "val")
	reply, _ := slave.Store().Exec(0, [][]byte{[]byte("GET"), []byte("fresh")})
	if string(reply) != "$3\r\nval\r\n" {
		t.Fatalf("steady-state propagation: %q", reply)
	}
}

func TestPartialResyncViaBacklog(t *testing.T) {
	w := newWorld(5)
	master := w.server("m", 6379)
	slave := w.server("sl", 6379)
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	c := w.dial(t, master)
	c.do(t, "SET", "a", "1")

	// Knock the slave out, write more, then recover: the gap fits in the
	// backlog so the slave must take the CONTINUE path (no RDB load).
	slave.Crash()
	c.do(t, "SET", "b", "2")
	c.do(t, "SET", "c", "3")
	slave.Recover()
	w.run()
	if !slave.SyncedWithMaster() {
		t.Fatal("slave did not resync")
	}
	for _, k := range []string{"a", "b", "c"} {
		reply, _ := slave.Store().Exec(0, [][]byte{[]byte("GET"), []byte(k)})
		if reply[0] != '$' || string(reply) == "$-1\r\n" {
			t.Fatalf("key %s missing after partial resync: %q", k, reply)
		}
	}
}

// TestSlaveLinkStopsAtUndecodableStream: stream bytes the applier cannot
// decode must not count toward the offset a slave acks (REPLCONF ACK past
// them would release a quorum write no replica executed). The link restarts
// the sync from scratch, as it does for a corrupt RDB transfer, and follows
// the stream again afterwards. Before the fix the error was swallowed: the
// offset covered the bad bytes and everything after them, none of it applied.
func TestSlaveLinkStopsAtUndecodableStream(t *testing.T) {
	w := newWorld(7)
	master := w.server("m", 6379)
	slave := w.server("sl", 6379)
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	c := w.dial(t, master)
	c.do(t, "SET", "before", "1")
	if !slave.SyncedWithMaster() || slave.MasterOffset() != master.ReplOffset() {
		t.Fatalf("slave not following the stream: offset %d, master %d", slave.MasterOffset(), master.ReplOffset())
	}

	link, off := slave.master, slave.MasterOffset()
	link.onMessage([]byte("*1\r\n$x\r\n"))
	if slave.master == link || slave.SyncedWithMaster() {
		t.Fatal("the link kept streaming past bytes it could not decode")
	}
	if got := slave.MasterOffset(); got > off {
		t.Fatalf("offset moved %d -> %d over bytes nobody executed", off, got)
	}
	if n := slave.Metrics().Counter(replstream.ProtocolErrorsMetric).Value(); n != 1 {
		t.Fatalf("%s = %d, want 1", replstream.ProtocolErrorsMetric, n)
	}

	w.run()
	c.do(t, "SET", "after", "2")
	if !slave.SyncedWithMaster() || slave.MasterOffset() != master.ReplOffset() {
		t.Fatalf("slave did not recover: synced=%t offset %d, master %d", slave.SyncedWithMaster(), slave.MasterOffset(), master.ReplOffset())
	}
	if reply, _ := slave.Store().Exec(0, [][]byte{[]byte("GET"), []byte("after")}); string(reply) != "$1\r\n2\r\n" {
		t.Fatalf("write after the recovery not applied on the slave: %q", reply)
	}
}

func TestSlaveAcksAdvanceMasterView(t *testing.T) {
	w := newWorld(6)
	master := w.server("m", 6379)
	slave := w.server("sl", 6379)
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	c := w.dial(t, master)
	for i := 0; i < 20; i++ {
		c.do(t, "SET", "k", "v")
	}
	// Run past a cron period so the slave sends REPLCONF ACK.
	w.eng.Run(w.eng.Now().Add(300 * sim.Millisecond))
	offs := master.SlaveAckOffsets()
	if len(offs) != 1 {
		t.Fatalf("slave handles: %d", len(offs))
	}
	if offs[0] != master.ReplOffset() {
		t.Fatalf("ack offset %d != master offset %d", offs[0], master.ReplOffset())
	}
}

func TestWriteGateBlocksWrites(t *testing.T) {
	w := newWorld(7)
	srv := w.server("s", 6379)
	srv.WriteGate = func() string { return "NOREPLICAS nope" }
	c := w.dial(t, srv)
	if v := c.do(t, "SET", "k", "v"); !v.IsError() {
		t.Fatalf("gated write accepted: %s", v.String())
	}
	if v := c.do(t, "GET", "k"); v.IsError() {
		t.Fatal("gate must not block reads")
	}
	if srv.ErrRepliesSent == 0 {
		t.Fatal("ErrRepliesSent not counted")
	}
}

// TestErrRepliesSentCountsEveryErrorReply checks INFO's err_replies_sent
// against the error replies a client actually receives, whichever stage
// produced them: the store (unknown command, wrong arity, wrong type), the
// admission plane (READONLY on a slave) and the protocol-error path.
func TestErrRepliesSentCountsEveryErrorReply(t *testing.T) {
	eachLayout(t, 13, layouts, func(t *testing.T, w *world, l layout) {
		srv := w.build(Options{Name: "s", Params: w.shaped(l.shards, l.listeners)})
		c := w.dial(t, srv)
		c.do(t, "SET", "str", "v")
		got := c.sendPipe(5*sim.Millisecond, pipeOf("NOSUCHCMD x", "GET", "LPUSH str a", "GET str"))
		if len(got) != 4 || !got[0].IsError() || !got[1].IsError() || !got[2].IsError() || got[3].IsError() {
			t.Fatalf("replies %v, want three errors, then v", render(got))
		}
		if srv.ErrRepliesSent != 3 {
			t.Fatalf("err_replies_sent = %d after 3 error replies", srv.ErrRepliesSent)
		}
		srv.SetRole(RoleSlave)
		if v := c.do(t, "SET", "k", "v"); !v.IsError() {
			t.Fatalf("write on a slave: %s", v.String())
		}
		w.eng.After(0, func() { c.conn.Send([]byte("*1\r\n:5\r\n")) })
		w.run()
		if srv.ErrRepliesSent != 5 {
			t.Fatalf("err_replies_sent = %d after READONLY and a protocol error, want 5", srv.ErrRepliesSent)
		}
	})
}

func TestOnPropagateHookReplacesFanout(t *testing.T) {
	w := newWorld(8)
	master := w.server("m", 6379)
	slave := w.server("sl", 6379)
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	var hooked []replstream.Batch
	master.OnPropagate = func(b replstream.Batch) {
		b.Data = bytes.Clone(b.Data) // lent until the hook returns
		hooked = append(hooked, b)
	}
	c := w.dial(t, master)
	c.do(t, "SET", "k", "v")
	if len(hooked) != 1 {
		t.Fatalf("hook called %d times", len(hooked))
	}
	// The default fan-out must NOT have run: slave never saw the write.
	reply, _ := slave.Store().Exec(0, [][]byte{[]byte("GET"), []byte("k")})
	if string(reply) != "$-1\r\n" {
		t.Fatal("default fan-out ran despite OnPropagate hook")
	}
	// But the backlog was still appended (offsets must advance).
	if master.ReplOffset() == 0 {
		t.Fatal("backlog not written")
	}
}

func TestProtocolErrorClosesConnection(t *testing.T) {
	w := newWorld(9)
	srv := w.server("s", 6379)
	c := w.dial(t, srv)
	w.eng.After(0, func() { c.conn.Send([]byte("*1\r\n:5\r\n")) }) // ints not allowed in commands
	w.run()
	if len(c.got) == 0 || !c.got[len(c.got)-1].IsError() {
		t.Fatal("no protocol error reply")
	}
}

func TestCrashStopsProcessingRecoverResumes(t *testing.T) {
	w := newWorld(11)
	srv := w.server("s", 6379)
	c := w.dial(t, srv)
	c.do(t, "SET", "k", "1")
	srv.Crash()
	before := len(c.got)
	w.eng.After(0, func() { c.conn.Send(resp.EncodeCommand("GET", "k")) })
	w.run()
	if len(c.got) != before {
		t.Fatal("crashed server replied")
	}
	srv.Recover()
	if v := c.do(t, "GET", "k"); v.String() != "1" {
		t.Fatalf("after recover: %s", v.String())
	}
}

func TestRoleTransitions(t *testing.T) {
	w := newWorld(12)
	srv := w.server("s", 6379)
	if srv.Role() != RoleMaster {
		t.Fatal("fresh server should be master")
	}
	srv.SetRole(RoleSlave)
	if srv.Role() != RoleSlave || srv.Role().String() != "slave" {
		t.Fatal("SetRole failed")
	}
	changed := false
	srv.OnRoleChange = func(r Role) { changed = r == RoleMaster }
	srv.PromoteToMaster()
	if !changed || srv.Role() != RoleMaster {
		t.Fatal("promotion failed")
	}
}

func TestSlaveOfCommandNoOne(t *testing.T) {
	w := newWorld(13)
	master := w.server("m", 6379)
	slave := w.server("sl", 6379)
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	c := w.dial(t, slave)
	if v := c.do(t, "SLAVEOF", "NO", "ONE"); !v.IsOK() {
		t.Fatalf("SLAVEOF NO ONE: %s", v.String())
	}
	if slave.Role() != RoleMaster {
		t.Fatal("SLAVEOF NO ONE did not promote")
	}
	if v := c.do(t, "SET", "now-writable", "1"); !v.IsOK() {
		t.Fatalf("write after promotion: %s", v.String())
	}
}

func TestSelectPropagatesInReplicationStream(t *testing.T) {
	w := newWorld(14)
	master := w.server("m", 6379)
	slave := w.server("sl", 6379)
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	c := w.dial(t, master)
	c.do(t, "SELECT", "2")
	c.do(t, "SET", "indb2", "yes")
	c.do(t, "SELECT", "0")
	c.do(t, "SET", "indb0", "yes")
	w.run()
	r2, _ := slave.Store().Exec(2, [][]byte{[]byte("GET"), []byte("indb2")})
	r0, _ := slave.Store().Exec(0, [][]byte{[]byte("GET"), []byte("indb0")})
	if string(r2) != "$3\r\nyes\r\n" {
		t.Fatalf("db2 write not replicated to slave db2: %q", r2)
	}
	if string(r0) != "$3\r\nyes\r\n" {
		t.Fatalf("db0 write after SELECT-back not replicated: %q", r0)
	}
	rWrong, _ := slave.Store().Exec(0, [][]byte{[]byte("GET"), []byte("indb2")})
	if string(rWrong) != "$-1\r\n" {
		t.Fatal("db2 key leaked into slave db0")
	}
}

func TestExpiryReplicates(t *testing.T) {
	w := newWorld(15)
	master := w.server("m", 6379)
	slave := w.server("sl", 6379)
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	c := w.dial(t, master)
	c.do(t, "SET", "k", "v")
	c.do(t, "PEXPIRE", "k", "200")
	w.run() // 500ms ≫ 200ms TTL
	reply, _ := slave.Store().Exec(0, [][]byte{[]byte("GET"), []byte("k")})
	if string(reply) != "$-1\r\n" {
		t.Fatalf("expired key still on slave: %q", reply)
	}
}

func TestWaitRejectsOnSlaveAndBadArgs(t *testing.T) {
	w := newWorld(17)
	master := w.server("m", 6379)
	slave := w.server("sl", 6379)
	slave.SlaveOf(master.Stack().Endpoint(), 6379)
	w.run()
	c := w.dial(t, slave)
	if v := c.do(t, "WAIT", "1", "10"); !v.IsError() {
		t.Fatalf("WAIT on replica: %s", v.String())
	}
	cm := w.dial(t, master)
	if v := cm.do(t, "WAIT", "x", "10"); !v.IsError() {
		t.Fatalf("WAIT bad arg: %s", v.String())
	}
	if v := cm.do(t, "WAIT", "1"); !v.IsError() {
		t.Fatalf("WAIT arity: %s", v.String())
	}
}

func TestWaitZeroReplicasImmediate(t *testing.T) {
	w := newWorld(18)
	master := w.server("m", 6379)
	c := w.dial(t, master)
	if v := c.do(t, "WAIT", "0", "0"); v.Type != resp.TypeInteger || v.Int != 0 {
		t.Fatalf("WAIT 0 0: %s", v.String())
	}
}

// sinkConn is a connection whose Send copies the payload, as every
// transport's does, and keeps the last one.
type sinkConn struct {
	transport.Conn
	last []byte
}

func (c *sinkConn) Send(p []byte) { c.last = append(c.last[:0], p...) }

// TestInlineRequestAllocations: at one shard a GET and a same-size SET of a
// live key run parse → execute → merge → propagate → reply inside the read
// event, on the argv borrowed from the query buffer and the connection's
// reply scratch, and allocate nothing; neither does a quorum SET whose reply
// parks on the consistency tracker and is released by watermark.
func TestInlineRequestAllocations(t *testing.T) {
	w := newWorld(31)
	s := w.server("m", 6379)
	if s.NumShards() != 1 {
		t.Fatalf("%d shards, want 1", s.NumShards())
	}
	value := strings.Repeat("v", 64)
	s.Store().Exec(0, [][]byte{[]byte("SET"), []byte("key:0000012345"), []byte(value)})
	sink := &sinkConn{}
	c := &client{id: 99, conn: sink, owner: s.proc}
	s.clients[c.id] = c
	get, set := pipeOf("GET key:0000012345"), pipeOf("SET key:0000012345 "+value)
	for _, tc := range []struct {
		name  string
		query []byte
		want  string
	}{{"GET", get, "$64\r\n" + value + "\r\n"}, {"SET", set, "+OK\r\n"}} {
		s.readQueryFromClient(c, tc.query)
		if string(sink.last) != tc.want {
			t.Fatalf("%s replied %q, want %q", tc.name, sink.last, tc.want)
		}
		if n := testing.AllocsPerRun(200, func() { s.readQueryFromClient(c, tc.query) }); n != 0 {
			t.Errorf("inline %s allocated %.1f times, want 0", tc.name, n)
		}
	}

	s.readQueryFromClient(c, pipeOf("SKV.CONSISTENCY quorum 1"))
	quorumSet := func() {
		sink.last = sink.last[:0]
		s.readQueryFromClient(c, set)
		if s.Acks().Parked() != 1 || len(sink.last) != 0 {
			t.Fatalf("quorum SET: %d parked, replied %q before its ack", s.Acks().Parked(), sink.last)
		}
		s.Acks().ReleaseUpTo(s.ReplOffset())
		if s.Acks().Parked() != 0 || string(sink.last) != "+OK\r\n" {
			t.Fatalf("quorum SET: %d parked, replied %q after its release", s.Acks().Parked(), sink.last)
		}
	}
	quorumSet()
	if n := testing.AllocsPerRun(200, quorumSet); n != 0 {
		t.Errorf("parked quorum SET and its release allocated %.1f times, want 0", n)
	}
}
