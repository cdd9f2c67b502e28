package core

import (
	"bytes"
	"fmt"
	"testing"

	"skv/internal/fabric"
	"skv/internal/model"
	"skv/internal/rconn"
	"skv/internal/replstream"
	"skv/internal/resp"
	"skv/internal/server"
	"skv/internal/sim"
	"skv/internal/transport"
)

// sinkConn is a connection that does what every transport's Send does —
// copy the payload before returning — and nothing else, so a test can see
// exactly the bytes a sender handed over and count the sender's allocations
// alone.
type sinkConn struct {
	transport.Conn
	frames [][]byte // one copy per Send, kept only while record is set
	record bool
	last   []byte
	sends  int
}

func (c *sinkConn) Send(p []byte) {
	c.sends++
	c.last = append(c.last[:0], p...)
	if c.record {
		c.frames = append(c.frames, append([]byte(nil), p...))
	}
}

// unit is one SKV replication group wired by hand: master + Nic-KV + slaves.
type unit struct {
	eng    *sim.Engine
	master *server.Server
	host   *HostKV
	nic    *NicKV
	agents []*SlaveAgent
}

func newUnit(slaves int, cfg Config) *unit {
	p := model.Default()
	eng := sim.New(1)
	net := fabric.New(eng, &p)
	newServer := func(name string, m *fabric.Machine, seed int64) *server.Server {
		proc := sim.NewProc(eng, sim.NewCore(eng, name+"-core", p.HostCoreSpeed), p.CompChannelWake)
		return server.New(server.Options{Name: name, Params: &p, Seed: seed, Port: ClientPort, DisableCron: true},
			eng, rconn.New(net, m.Host, proc), proc)
	}
	mm := net.NewMachine("master", true)
	u := &unit{eng: eng, master: newServer("master", mm, 1)}
	u.nic = NewNicKV(eng, net, mm, &p, cfg)
	u.host = AttachMaster(u.master, net, mm.NIC, cfg)
	for i := 0; i < slaves; i++ {
		name := fmt.Sprintf("slave%d", i)
		u.agents = append(u.agents, AttachSlave(newServer(name, net.NewMachine(name, false), int64(2+i)), net, mm.NIC, cfg))
	}
	return u
}

// write executes one command on the master and enters it into the
// replication stream, as the command pipeline's commit stage does.
func (u *unit) write(words ...string) {
	argv := make([][]byte, len(words))
	for i, w := range words {
		argv[i] = []byte(w)
	}
	u.master.Store().Exec(0, argv)
	u.master.ReplStream().Append(0, argv)
}

func (u *unit) get(a *SlaveAgent, key string) string {
	reply, _ := a.Srv.Store().Exec(0, [][]byte{[]byte("GET"), []byte(key)})
	return string(reply)
}

// TestSlaveStopsAtUndecodableStream: a stream chunk the applier cannot
// decode must not count as replicated. The slave's offset — what it reports
// to Nic-KV, and what a quorum gate releases on — stays where the last
// executed command ended, the error is counted, and the slave falls back to
// a full synchronization, after which it follows the stream again. Before the
// fix Feed swallowed the error: the offset advanced past the bad bytes (and
// past everything after them, none of it ever applied again) and no resync
// was requested.
func TestSlaveStopsAtUndecodableStream(t *testing.T) {
	u := newUnit(1, DefaultConfig())
	a := u.agents[0]
	u.eng.RunFor(50 * sim.Millisecond)
	u.write("SET", "before", "1")
	u.eng.RunFor(10 * sim.Millisecond)
	if !a.Synced() || a.Offset() == 0 || a.Offset() != u.master.ReplOffset() {
		t.Fatalf("slave not following the stream: synced=%t offset=%d master=%d", a.Synced(), a.Offset(), u.master.ReplOffset())
	}

	off, resyncs := a.Offset(), a.Resyncs.Value()
	a.onStream(off, []byte("*1\r\n$x\r\n"))
	if a.Offset() != off {
		t.Fatalf("offset moved %d -> %d over bytes nobody executed", off, a.Offset())
	}
	if a.Resyncs.Value() != resyncs+1 || a.Synced() {
		t.Fatalf("no resynchronization requested: resyncs %d -> %d, synced=%t", resyncs, a.Resyncs.Value(), a.Synced())
	}
	if n := a.Srv.Metrics().Counter(replstream.ProtocolErrorsMetric).Value(); n != 1 {
		t.Fatalf("%s = %d, want 1", replstream.ProtocolErrorsMetric, n)
	}

	// The resync it asked for is a full one, and the stream resumes after it.
	fulls := u.host.FullSyncs.Value()
	u.eng.RunFor(50 * sim.Millisecond)
	u.write("SET", "after", "2")
	u.eng.RunFor(10 * sim.Millisecond)
	if u.host.FullSyncs.Value() != fulls+1 || !a.Synced() || a.Offset() != u.master.ReplOffset() {
		t.Fatalf("slave did not recover: full syncs %d -> %d, synced=%t, offset=%d master=%d",
			fulls, u.host.FullSyncs.Value(), a.Synced(), a.Offset(), u.master.ReplOffset())
	}
	if got := u.get(a, "after"); got != "$1\r\n2\r\n" {
		t.Fatalf("write after the recovery not applied on the slave: GET after = %q", got)
	}
}

// TestNicReplicaSurvivesUndecodableRequest: the NIC shadow replica is the
// stream's third consumer, and a request whose payload it cannot decode must
// not end its life. The error is counted in the NIC's registry, the
// replica's offset stays where the last applied command ended — so the next
// request registers as the gap it is — and, since every request holds whole
// commands, that next request is decoded from a clean buffer and applied.
// Before the fix the applier's sticky error was ignored: the offset advanced
// and nothing was ever applied again while NIC-served reads kept answering.
func TestNicReplicaSurvivesUndecodableRequest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ServeReadsFromNIC = true
	u := newUnit(0, cfg)
	u.eng.RunFor(10 * sim.Millisecond)
	u.nic.masterConn = &sinkConn{}
	var end int64
	request := func(payload []byte) {
		u.nic.onMessage(u.nic.masterConn, appendOffload(nil, end, 0, 1, payload))
		end += int64(len(payload))
		u.eng.RunFor(sim.Millisecond)
	}
	get := func(key string) string {
		reply, _ := u.nic.ReplicaStore().Exec(0, [][]byte{[]byte("GET"), []byte(key)})
		return string(reply)
	}
	count := func(name string) uint64 { return u.nic.Metrics().Counter(name).Value() }

	request(resp.EncodeCommand("SET", "before", "1"))
	request([]byte("*1\r\n$x\r\n"))
	request(resp.EncodeCommand("SET", "after", "2"))
	if got := get("before"); got != "$1\r\n1\r\n" {
		t.Fatalf("GET before = %q on the replica", got)
	}
	if got := get("after"); got != "$1\r\n2\r\n" {
		t.Fatalf("the replica applied nothing after the undecodable request: GET after = %q", got)
	}
	if n := count(replstream.ProtocolErrorsMetric); n != 1 {
		t.Fatalf("%s = %d, want 1", replstream.ProtocolErrorsMetric, n)
	}
	if n := count("nickv.replica.gaps"); n != 1 {
		t.Fatalf("nickv.replica.gaps = %d, want 1: the request after the bad one skipped bytes nobody applied", n)
	}
}

// TestOffloadAndFanOutFrames pins the owner-held frame buffers: Host-KV's
// replication request and Nic-KV's single-threaded fan-out are each built in
// the sender's one scratch frame, and every receiver still gets exactly the
// bytes of its own frame. That neither allocates is
// TestOffloadAndFanOutAllocations'.
func TestOffloadAndFanOutFrames(t *testing.T) {
	cmd := resp.EncodeCommand("SET", "key:0000012345", string(bytes.Repeat([]byte("v"), 64)))
	other := resp.EncodeCommand("SET", "key:0000054321", string(bytes.Repeat([]byte("w"), 200)))

	u := newUnit(0, DefaultConfig())
	u.eng.RunFor(10 * sim.Millisecond)
	toNic := &sinkConn{}
	u.host.nicConn = toNic
	batch := replstream.Batch{Start: 4242, Data: cmd, Cmds: 1}
	u.host.propagate(batch)
	if want := appendOffload(nil, 4242, 0, 1, cmd); !bytes.Equal(toNic.last, want) {
		t.Errorf("offload frame = %q, want %q", toNic.last, want)
	}

	slaves := []*sinkConn{{}, {}, {}}
	for i, c := range slaves {
		u.nic.registerSlave(fmt.Sprintf("s%d", i), "", 0, c)
	}
	// A longer frame after a shorter one, then the shorter one again: each
	// send carries its own bytes, nothing left over from the last.
	for _, c := range slaves {
		c.record, c.frames = true, nil
	}
	u.nic.fanOut(100, other, 1)
	u.nic.fanOut(100+int64(len(other)), cmd, 1)
	want := [][]byte{
		appendStream(nil, msgCmdStream, 100, other),
		appendStream(nil, msgCmdStream, 100+int64(len(other)), cmd),
	}
	for i, c := range slaves {
		if len(c.frames) != 2 || !bytes.Equal(c.frames[0], want[0]) || !bytes.Equal(c.frames[1], want[1]) {
			t.Errorf("slave %d received %q, want %q", i, c.frames, want)
		}
	}
}

// TestOffloadAndFanOutAllocations: Host-KV's replication request and Nic-KV's
// fan-out allocate nothing — single-threaded, where every send happens before
// fanOut returns, and at ThreadNum 2, where each slave's send
// runs later on its thread from a frame buffer the node recycles through a
// task bound once.
func TestOffloadAndFanOutAllocations(t *testing.T) {
	cmd := resp.EncodeCommand("SET", "key:0000012345", string(bytes.Repeat([]byte("v"), 64)))
	u := newUnit(0, DefaultConfig())
	u.eng.RunFor(10 * sim.Millisecond)
	u.host.nicConn = &sinkConn{}
	batch := replstream.Batch{Start: 4242, Data: cmd, Cmds: 1}
	u.host.propagate(batch)
	if n := testing.AllocsPerRun(200, func() { u.host.propagate(batch) }); n != 0 {
		t.Errorf("HostKV.propagate allocated %.1f times per batch, want 0", n)
	}
	for i := 0; i < 3; i++ {
		u.nic.registerSlave(fmt.Sprintf("s%d", i), "", 0, &sinkConn{})
	}
	u.nic.fanOut(0, cmd, 1)
	if n := testing.AllocsPerRun(200, func() { u.nic.fanOut(0, cmd, 1) }); n != 0 {
		t.Errorf("single-threaded NicKV.fanOut allocated %.1f times per request, want 0", n)
	}

	cfg := DefaultConfig()
	cfg.ThreadNum = 2
	u = newUnit(0, cfg)
	if len(u.nic.threads) == 0 {
		t.Fatal("no replication threads")
	}
	u.eng.RunFor(10 * sim.Millisecond)
	slaves := []*sinkConn{{}, {}, {}}
	for i, c := range slaves {
		u.nic.registerSlave(fmt.Sprintf("s%d", i), "", 0, c)
	}
	round := func() {
		u.nic.fanOut(0, cmd, 1)
		u.nic.fanOut(0, cmd, 1)
		u.eng.RunFor(sim.Millisecond)
	}
	round()
	sent := slaves[0].sends
	if n := testing.AllocsPerRun(200, func() { round() }); n != 0 {
		t.Errorf("NicKV.fanOut at ThreadNum 2 allocated %.1f times per two requests, want 0", n)
	}
	if got := slaves[0].sends - sent; got != 2*201 {
		t.Errorf("slave 0 was sent %d frames over 201 rounds of two requests, want %d", got, 2*201)
	}
}

// TestThreadedFanOutFramesOutliveTheCall: with replication threads the sends
// are posted to other cores and run after fanOut has returned — and after the
// next fanOut has built its frame — so they must not share the scratch
// buffer: two requests issued back to back arrive as two different frames.
func TestThreadedFanOutFramesOutliveTheCall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ThreadNum = 2
	u := newUnit(0, cfg)
	if len(u.nic.threads) == 0 {
		t.Fatal("no replication threads")
	}
	u.eng.RunFor(10 * sim.Millisecond)
	slaves := []*sinkConn{{record: true}, {record: true}}
	for i, c := range slaves {
		u.nic.registerSlave(fmt.Sprintf("s%d", i), "", 0, c)
	}
	first := resp.EncodeCommand("SET", "a", "first")
	second := resp.EncodeCommand("SET", "b", "second-and-longer")
	u.nic.fanOut(0, first, 1)
	u.nic.fanOut(int64(len(first)), second, 1)
	u.eng.RunFor(1 * sim.Millisecond)
	want := [][]byte{
		appendStream(nil, msgCmdStream, 0, first),
		appendStream(nil, msgCmdStream, int64(len(first)), second),
	}
	for i, c := range slaves {
		if len(c.frames) != 2 || !bytes.Equal(c.frames[0], want[0]) || !bytes.Equal(c.frames[1], want[1]) {
			t.Errorf("slave %d received %q, want %q", i, c.frames, want)
		}
	}
}

// TestGatePathAllocations pins the quorum/all path layer by layer: the gated
// replication request, the NIC's parse + gate queue + 'c'-tagged fan-out, the
// slaves' progress reports, and the release watermark each allocate nothing,
// and one gated request is one stream frame and one report per slave, and one
// release.
func TestGatePathAllocations(t *testing.T) {
	cmd := resp.EncodeCommand("SET", "key:0000012345", string(bytes.Repeat([]byte("v"), 64)))
	u := newUnit(0, DefaultConfig())
	u.eng.RunFor(10 * sim.Millisecond)

	// Master → NIC.
	toNic := &sinkConn{}
	u.host.nicConn = toNic
	batch := replstream.Batch{Start: 4242, Data: cmd, Cmds: 1, Gate: replstream.QuorumGate(2)}
	u.host.propagate(batch)
	if n := testing.AllocsPerRun(200, func() { u.host.propagate(batch) }); n != 0 {
		t.Errorf("gated HostKV.propagate allocated %.1f times per batch, want 0", n)
	}
	if want := appendOffload(nil, 4242, replstream.QuorumGate(2), 1, cmd); !bytes.Equal(toNic.last, want) {
		t.Errorf("gated offload frame = %q, want %q", toNic.last, want)
	}

	// NIC: three slaves on sink connections; each round is one gated request
	// followed by every slave's report, the second of which meets the quorum.
	toMaster := &sinkConn{}
	u.nic.masterConn = toMaster
	slaves := []*sinkConn{{}, {}, {}}
	for i, c := range slaves {
		u.nic.registerSlave(fmt.Sprintf("s%d", i), "", 0, c)
	}
	request, report := append([]byte(nil), toNic.last...), []byte(nil)
	end := batch.End()
	round := func() {
		u.nic.onMessage(toMaster, request)
		for _, c := range slaves {
			report = appendU64(append(report[:0], msgProgress), uint64(end))
			u.nic.onMessage(c, report)
		}
	}
	round()
	sent, released := slaves[0].sends, toMaster.sends
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Errorf("gated request + fan-out + reports + release allocated %.1f times per round on the NIC, want 0", n)
	}
	rounds := slaves[0].sends - sent
	if got := toMaster.sends - released; got != rounds {
		t.Errorf("%d releases for %d gated requests, want one each", got, rounds)
	}
	if want := appendStream(nil, msgCmdStreamAck, 4242, cmd); !bytes.Equal(slaves[2].last, want) {
		t.Errorf("gated fan-out frame = %q, want %q", slaves[2].last, want)
	}
	if want := appendU64([]byte{msgAckRelease}, uint64(end)); !bytes.Equal(toMaster.last, want) {
		t.Errorf("release frame = %q, want %q", toMaster.last, want)
	}
	if u.nic.gates.Len() != 0 || u.nic.gGatesPending.Value() != 0 {
		t.Errorf("%d gates left queued (gauge %d)", u.nic.gates.Len(), u.nic.gGatesPending.Value())
	}

	// Slave → NIC: two requests for a report while one is queued send one.
	u = newUnit(1, DefaultConfig())
	u.eng.RunFor(50 * sim.Millisecond)
	a := u.agents[0]
	if !a.Synced() {
		t.Fatal("slave never synced")
	}
	toNicFromSlave := &sinkConn{}
	a.nicConn = toNicFromSlave
	reportTwice := func() {
		a.reportProgress()
		a.reportProgress()
		u.eng.RunFor(5 * sim.Microsecond)
	}
	reportTwice()
	if toNicFromSlave.sends != 1 {
		t.Fatalf("%d progress reports sent for two requests in one instant, want 1", toNicFromSlave.sends)
	}
	if n := testing.AllocsPerRun(100, reportTwice); n != 0 {
		t.Errorf("a progress report allocated %.1f times, want 0", n)
	}
	if want := appendU64([]byte{msgProgress}, uint64(a.Offset())); !bytes.Equal(toNicFromSlave.last, want) {
		t.Errorf("progress frame = %q, want %q", toNicFromSlave.last, want)
	}
}
