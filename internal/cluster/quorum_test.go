package cluster

import (
	"testing"

	"skv/internal/consistency"
	"skv/internal/core"
	"skv/internal/model"
	"skv/internal/resp"
	"skv/internal/sim"
)

// TestBatchedQuorumSendsNoExtraFrames: with the replication stream batched, a
// quorum write costs the NIC what an async one does plus the slaves' reports
// and one release — one request per batch, one stream frame and at most one
// progress report per slave per batch, one gate per batch. The gate used to
// be its own frame, sent at commit time — ahead of the batch holding the
// write's bytes — so every gated write queued its own gate and had the NIC
// ping every slave for a report the slaves could not yet give.
func TestBatchedQuorumSendsNoExtraFrames(t *testing.T) {
	const slaves = 3
	c := Build(Config{Kind: KindSKV, Slaves: slaves, Clients: 4, Pipeline: 8, Seed: 91,
		Params: batchParams(8), SKV: core.DefaultConfig(),
		Consistency: ConsistencyOpts{Level: consistency.Quorum, Quorum: 2}})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	slaveWRs := func() (n uint64) {
		for _, sl := range c.Slaves {
			for _, name := range []string{"rdma.wr.send", "rdma.wr.write", "rdma.wr.write_imm", "rdma.wr.read"} {
				n += sl.Metrics().Counter(name).Value()
			}
		}
		return n
	}
	idle := slaveWRs()
	began := c.Eng.Now()
	res := c.Measure(5*sim.Millisecond, 40*sim.Millisecond)
	for _, cl := range c.Clients {
		cl.Stop()
	}
	c.Eng.RunFor(5 * sim.Millisecond)
	if res.ErrReplies != 0 || res.Ops < 1000 {
		t.Fatalf("window did %d ops with %d error replies", res.Ops, res.ErrReplies)
	}
	if parked := c.Master.Acks().Parked(); parked != 0 {
		t.Fatalf("%d replies still parked after the load drained", parked)
	}

	g := c.Groups[0]
	writes := g.HostKV.CmdsOffloaded.Value()
	batches := g.HostKV.ReplReqsSent.Value()
	nic := func(name string) uint64 { return g.NicKV.Metrics().Counter(name).Value() }
	if writes < 2*batches {
		t.Fatalf("%d writes in %d batches: the stream never batched, the test has no bite", writes, batches)
	}
	if got := nic("nickv.stream.sent"); got != slaves*batches {
		t.Errorf("nickv.stream.sent = %d, want %d (one frame per slave per batch, %d batches)", got, slaves*batches, batches)
	}
	if got := nic("nickv.gate.queued"); got != batches {
		t.Errorf("nickv.gate.queued = %d, want %d (one per gated batch; %d writes)", got, batches, writes)
	}
	if got := nic("nickv.gate.releases"); got > batches {
		t.Errorf("nickv.gate.releases = %d for %d batches", got, batches)
	}
	// Everything a slave posted over the run: its progress reports, plus its
	// probe replies and cron-driven reports — one of each per tick at most.
	elapsed := c.Eng.Now().Sub(began)
	ticks := uint64(elapsed/c.Params.ProbePeriod+elapsed/c.Cfg.SKV.ProgressInterval) + 2
	if reports := slaveWRs() - idle; reports > slaves*(batches+ticks) {
		t.Errorf("slaves posted %d work requests for %d batches (+%d ticks each): more than one report per slave per batch", reports, batches, ticks)
	} else {
		t.Logf("%d writes, %d batches, %d slave work requests, %d releases", writes, batches, reports, nic("nickv.gate.releases"))
	}
}

// gateScene is a 1-master/3-slave SKV deployment with hand-driven client
// connections at different consistency levels, and slave 2's link to the NIC
// to cut and heal. The failure detector runs on the chaos profile (probe
// every 100ms, waiting-time 200ms), and the scene starts just after a probe
// tick: the master's status-frame fallback, which re-checks each parked reply
// against its own need, stays out of the way for the next 90ms.
type gateScene struct {
	t *testing.T
	c *Cluster
}

func newGateScene(t *testing.T, p *model.Params) *gateScene {
	c := Build(Config{Kind: KindSKV, Slaves: 3, Clients: 0, Seed: 5, Params: p,
		SKV: core.Config{ProgressInterval: 50 * sim.Millisecond}})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	return &gateScene{t: t, c: c}
}

// client dials the master and sets the connection's consistency level.
func (s *gateScene) client(name string, level ...string) *rawClient {
	s.t.Helper()
	rc := dialRaw(s.t, s.c, name, s.c.Groups[0].MasterMachine.Host, core.ClientPort)
	rc.conn.Send(resp.EncodeCommand(append([]string{"SKV.CONSISTENCY"}, level...)...))
	s.c.Eng.RunFor(sim.Millisecond)
	if len(rc.vals) != 1 || !rc.vals[0].IsOK() {
		s.t.Fatalf("%s: SKV.CONSISTENCY %v refused: %v", name, level, rc.vals)
	}
	return rc
}

// afterProbeTick runs to 10ms past the next probe tick.
func (s *gateScene) afterProbeTick() {
	period := s.c.Params.ProbePeriod
	next := (sim.Duration(s.c.Eng.Now())/period + 1) * period
	s.c.Eng.Run(sim.Time(next + 10*sim.Millisecond))
}

func (s *gateScene) cutSlave2(cut bool) {
	nic, slave := s.c.Groups[0].MasterMachine.NIC, s.c.Groups[0].SlaveMachines[2].Host
	if cut {
		s.c.Net.Faults().PartitionBoth(nic, slave)
	} else {
		s.c.Net.Faults().HealBoth(nic, slave)
	}
}

func (s *gateScene) nicCounter(name string) uint64 {
	return s.c.Groups[0].NicKV.Metrics().Counter(name).Value()
}

func (s *gateScene) gatesPending() int64 {
	return s.c.Groups[0].NicKV.Metrics().Gauge("nickv.gate.pending").Value()
}

// TestStricterGateBlocksWeakerBehindIt: connection A writes at "all",
// connection B after it at "quorum 1", with one slave cut off from the NIC.
// B's gate is satisfied at once — two slaves hold its write — but it queues
// behind A's, which is not, and the NIC's release watermark covers everything
// below it: B must not be acknowledged ahead of A. Both are when the slave
// returns; and, with the slave cut off for good, when the failure detector
// marks it down and "all" comes to mean the two that are left.
func TestStricterGateBlocksWeakerBehindIt(t *testing.T) {
	s := newGateScene(t, ChaosParams(0))
	a, b := s.client("conn-a", "all"), s.client("conn-b", "quorum", "1")
	write := func() {
		t.Helper()
		a.conn.Send(resp.EncodeCommand("SET", "a", "1"))
		s.c.Eng.RunFor(100 * sim.Microsecond)
		b.conn.Send(resp.EncodeCommand("SET", "b", "1"))
		s.c.Eng.RunFor(20 * sim.Millisecond)
		if len(a.vals) != 1 || len(b.vals) != 1 || s.gatesPending() != 2 {
			t.Fatalf("with slave2 cut off: A got %d replies, B %d, %d gates pending; want both writes held behind 2 gates",
				len(a.vals)-1, len(b.vals)-1, s.gatesPending())
		}
	}
	// released steps the run until both replies are in, checking that B's
	// never is while A's is not.
	released := func(within sim.Duration) {
		t.Helper()
		for deadline := s.c.Eng.Now().Add(within); len(a.vals) < 2 || len(b.vals) < 2; {
			if len(b.vals) == 2 && len(a.vals) < 2 {
				t.Fatal("B's quorum-1 write was acknowledged while A's all write ahead of it was not")
			}
			if s.c.Eng.Now() >= deadline {
				t.Fatalf("not released within %v: A got %d replies, B %d", within, len(a.vals)-1, len(b.vals)-1)
			}
			s.c.Eng.RunFor(sim.Microsecond)
		}
		if !a.vals[1].IsOK() || !b.vals[1].IsOK() || s.gatesPending() != 0 || s.c.Master.Acks().Parked() != 0 {
			t.Fatalf("after the release: replies %v / %v, %d gates pending, %d parked", a.vals[1], b.vals[1], s.gatesPending(), s.c.Master.Acks().Parked())
		}
		a.vals, b.vals = a.vals[:1], b.vals[:1]
	}

	s.afterProbeTick()
	s.cutSlave2(true)
	write()
	releases := s.nicCounter("nickv.gate.releases")
	s.cutSlave2(false)
	released(5 * sim.Millisecond)
	if got := s.nicCounter("nickv.gate.releases") - releases; got != 1 {
		t.Errorf("%d release frames for the two gates, want one watermark over both", got)
	}

	// Cut off for good. The status frames now reach the master while the
	// writes are parked, and its fallback may acknowledge B on B's own need —
	// two slaves do hold it — so only the outcome is checked: both release
	// once slave2 is marked down.
	s.afterProbeTick()
	s.cutSlave2(true)
	write()
	s.c.Eng.RunFor(600 * sim.Millisecond)
	if s.c.Groups[0].NicKV.ValidSlaves() != 2 {
		t.Fatalf("%d valid slaves, want slave2 marked down", s.c.Groups[0].NicKV.ValidSlaves())
	}
	if len(a.vals) != 2 || len(b.vals) != 2 || s.gatesPending() != 0 || s.c.Master.Acks().Parked() != 0 {
		t.Fatalf("with slave2 marked down: A got %d replies, B %d, %d gates pending, %d parked",
			len(a.vals)-1, len(b.vals)-1, s.gatesPending(), s.c.Master.Acks().Parked())
	}
}

// TestMixedLevelsShareOneBatch: writes at all, quorum 1 and async that
// commit inside one batching window leave in one replication request under
// one gate — the strictest of theirs, so the quorum-1 write waits for every
// slave like the all write it shares bytes with — and the async write in it
// is acknowledged at once, before the batch has even left the master.
func TestMixedLevelsShareOneBatch(t *testing.T) {
	p := ChaosParams(0)
	p.ReplBatchMaxCmds = 8
	p.ReplBatchMaxDelay = 2 * sim.Millisecond
	s := newGateScene(t, p)
	a, b, c := s.client("conn-a", "all"), s.client("conn-b", "quorum", "1"), s.client("conn-c", "async")
	s.afterProbeTick()
	s.cutSlave2(true)
	g := s.c.Groups[0]
	reqs := g.HostKV.ReplReqsSent.Value()
	a.conn.Send(resp.EncodeCommand("SET", "a", "1"))
	b.conn.Send(resp.EncodeCommand("SET", "b", "1"))
	c.conn.Send(resp.EncodeCommand("SET", "c", "1"))
	s.c.Eng.RunFor(500 * sim.Microsecond)
	if len(c.vals) != 2 || !c.vals[1].IsOK() {
		t.Fatalf("the async write got %d replies inside the batching window, want its OK", len(c.vals)-1)
	}
	if g.HostKV.ReplReqsSent.Value() != reqs || s.c.Master.ReplStream().Pending() == 0 {
		t.Fatalf("the batch left early: %d requests since, %d bytes pending", g.HostKV.ReplReqsSent.Value()-reqs, s.c.Master.ReplStream().Pending())
	}
	s.c.Eng.RunFor(20 * sim.Millisecond)
	if got := g.HostKV.ReplReqsSent.Value() - reqs; got != 1 {
		t.Fatalf("%d replication requests for the three writes, want one batch", got)
	}
	if q := s.nicCounter("nickv.gate.queued"); q != 1 || s.gatesPending() != 1 {
		t.Fatalf("%d gates queued, %d pending; want the batch's one", q, s.gatesPending())
	}
	if len(a.vals) != 1 || len(b.vals) != 1 {
		t.Fatalf("with slave2 cut off: A got %d replies, B %d; the batch's gate is A's all, and B's write rides it", len(a.vals)-1, len(b.vals)-1)
	}
	s.cutSlave2(false)
	s.c.Eng.RunFor(5 * sim.Millisecond)
	if len(a.vals) != 2 || len(b.vals) != 2 || !a.vals[1].IsOK() || !b.vals[1].IsOK() {
		t.Fatalf("after the heal: A got %v, B %v", a.vals[1:], b.vals[1:])
	}
	if s.gatesPending() != 0 || s.c.Master.Acks().Parked() != 0 || s.nicCounter("nickv.gate.releases") != 1 {
		t.Fatalf("%d gates pending, %d parked, %d releases", s.gatesPending(), s.c.Master.Acks().Parked(), s.nicCounter("nickv.gate.releases"))
	}
}
