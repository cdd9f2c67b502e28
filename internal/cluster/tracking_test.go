package cluster

import (
	"fmt"
	"strings"
	"testing"

	"skv/internal/core"
	"skv/internal/fabric"
	"skv/internal/rconn"
	"skv/internal/resp"
	"skv/internal/server"
	"skv/internal/sim"
	"skv/internal/slots"
	"skv/internal/store"
	"skv/internal/tcpsim"
	"skv/internal/transport"
)

// ---- helpers ------------------------------------------------------------

// rawClient is a hand-driven connection for protocol-level tests: it
// collects every RESP value the peer sends.
type rawClient struct {
	conn transport.Conn
	vals []resp.Value
}

// dialRaw connects to ep:port with the deployment's client transport.
func dialRaw(t *testing.T, c *Cluster, name string, ep *fabric.Endpoint, port int) *rawClient {
	t.Helper()
	m := c.Net.NewMachine(name, false)
	proc := sim.NewProc(c.Eng, sim.NewCore(c.Eng, name+"-core", 1.0), c.Params.ClientWakeup)
	var stack transport.Stack
	if c.Cfg.Kind == KindTCP {
		stack = tcpsim.New(c.Net, m.Host, proc)
	} else {
		stack = rconn.New(c.Net, m.Host, proc)
	}
	rc := &rawClient{}
	stack.Dial(ep, port, func(conn transport.Conn, err error) {
		if err != nil {
			t.Errorf("%s: dial failed: %v", name, err)
			return
		}
		rc.conn = conn
		var r resp.Reader
		conn.SetHandler(func(data []byte) {
			r.Feed(data)
			for {
				v, ok, _ := r.ReadValue()
				if !ok {
					break
				}
				rc.vals = append(rc.vals, v)
			}
		})
	})
	c.Eng.RunFor(20 * sim.Millisecond)
	if rc.conn == nil {
		t.Fatalf("%s: never connected", name)
	}
	return rc
}

// storeVal reads one string key straight from a store, decoded.
func storeVal(t *testing.T, s *store.Store, key string) (string, bool) {
	t.Helper()
	reply, _ := s.Exec(0, [][]byte{[]byte("GET"), []byte(key)})
	var r resp.Reader
	r.Feed(reply)
	v, ok, err := r.ReadValue()
	if err != nil || !ok {
		t.Fatalf("undecodable GET reply for %q: %q", key, reply)
	}
	if v.Null || v.Type != resp.TypeBulk {
		return "", false
	}
	return string(v.Str), true
}

// aliveMaster finds the server currently holding the master role in one
// replication group (after a failover it may be a promoted slave).
func aliveMaster(t *testing.T, label string, master *server.Server, slaves []*server.Server) *server.Server {
	t.Helper()
	if master.Alive() && master.Role() == server.RoleMaster {
		return master
	}
	for _, s := range slaves {
		if s.Alive() && s.Role() == server.RoleMaster {
			return s
		}
	}
	t.Fatalf("%s: no alive master", label)
	return nil
}

// ownerStore resolves the authoritative store for a key: the current
// (possibly promoted) master of the group owning the key's slot — the only
// group when there is no slot plane.
func ownerStore(t *testing.T, c *Cluster, key string) *store.Store {
	t.Helper()
	g := c.Groups[0]
	if c.SlotMap != nil {
		g = c.Groups[c.SlotMap.Owner(slots.Slot([]byte(key)))]
	}
	return aliveMaster(t, fmt.Sprintf("g%d", g.Index), g.Master, g.Slaves).Store()
}

// requireCachesCoherent is the staleness oracle: at quiesce, every entry a
// tracked client still caches must be byte-equal to the value the key's
// authoritative owner currently serves. A mismatch — or a cached key the
// owner no longer holds — is a stale locally-served read that survived.
// Returns the aggregate tracking counters for signal assertions.
func requireCachesCoherent(t *testing.T, label string, c *Cluster) (hits, invals uint64, entries int) {
	t.Helper()
	var errReplies uint64
	for _, cl := range c.Clients {
		st := cl.Stats()
		hits += st.Hits
		invals += st.Invalidations
		errReplies += st.ErrReplies
		for k, v := range cl.CacheEntries() {
			want, okV := storeVal(t, ownerStore(t, c, k), k)
			if !okV {
				t.Fatalf("%s: %s caches %q=%q but the owner no longer holds the key",
					label, cl.Name(), k, v)
			}
			if want != v {
				t.Fatalf("%s: stale cache entry on %s: %q=%q, owner serves %q",
					label, cl.Name(), k, v, want)
			}
			entries++
		}
	}
	if errReplies != 0 {
		t.Fatalf("%s: %d error replies leaked to tracked clients", label, errReplies)
	}
	return hits, invals, entries
}

// runTracked drives a built cluster's workload clients and settles.
func runTracked(t *testing.T, c *Cluster, load, settle sim.Duration) {
	t.Helper()
	if c.Cfg.Kind == KindSKV && !c.AwaitReplication(2*sim.Second) {
		t.Fatal("initial replication did not complete")
	}
	c.StartClients()
	c.Eng.RunFor(load)
	for _, cl := range c.Clients {
		cl.Stop()
	}
	c.Eng.RunFor(settle)
}

// ---- end-to-end smoke across deployment kinds ---------------------------

// TestTrackingSmokeInBand: on the baselines, CLIENT TRACKING is served
// entirely by the host (interest table + RESP3 pushes on the data
// connection). A mixed Zipfian load across three clients must produce
// cache hits, cross-client invalidations, no errors, and a coherent cache.
func TestTrackingSmokeInBand(t *testing.T) {
	for _, kind := range []Kind{KindTCP, KindRDMA} {
		c := Build(Config{Kind: kind, Slaves: 0, Clients: 3, Seed: 41,
			KeySpace: 300, GetRatio: 0.8, Zipf: true, Tracking: true})
		runTracked(t, c, 250*sim.Millisecond, 100*sim.Millisecond)
		hits, invals, entries := requireCachesCoherent(t, kind.String(), c)
		if hits == 0 {
			t.Fatalf("%s: no tracked GET was ever served locally", kind)
		}
		if invals == 0 {
			t.Fatalf("%s: no invalidation push was ever applied", kind)
		}
		if entries == 0 {
			t.Fatalf("%s: caches empty at quiesce", kind)
		}
		if c.Master.TrackingSubscribers() != 3 {
			t.Fatalf("%s: %d in-band subscribers, want 3", kind, c.Master.TrackingSubscribers())
		}
	}
}

// TestTrackingSmokeSKVRedirect: on SKV the interest table lives on the
// SmartNIC — the host only forwards interest, and invalidation pushes are
// generated on the NIC's replication fan-out path and delivered over the
// out-of-band subscription channel. The host-side table must stay empty.
func TestTrackingSmokeSKVRedirect(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Slaves: 1, Clients: 3, Seed: 43,
		KeySpace: 300, GetRatio: 0.8, Zipf: true, Tracking: true,
		SKV: core.DefaultConfig()})
	runTracked(t, c, 250*sim.Millisecond, 100*sim.Millisecond)
	hits, invals, entries := requireCachesCoherent(t, "skv-redirect", c)
	if hits == 0 || invals == 0 || entries == 0 {
		t.Fatalf("tracking plane inert: hits=%d invals=%d entries=%d", hits, invals, entries)
	}
	if c.Master.TrackingLen() != 0 || c.Master.TrackingSubscribers() != 0 {
		t.Fatalf("redirect mode left interest on the host: keys=%d subs=%d",
			c.Master.TrackingLen(), c.Master.TrackingSubscribers())
	}
	g := c.Groups[0]
	if g.NicKV.TrackingSubscribers() != 3 {
		t.Fatalf("NIC holds %d subscribers, want 3", g.NicKV.TrackingSubscribers())
	}
	if g.NicKV.InvalidationsPushed.Value() == 0 {
		t.Fatal("NIC pushed no invalidations — pushes did not ride the fan-out path")
	}
}

// TestTrackingSmokeNicServedReads: with NicReads=clients the tracked GETs
// are served by the ARM cores and the interest table + pushes never touch
// the host at all. Clients are read-only (the NIC rejects writes); a
// host-connected writer seeds and then overwrites keys, and the overwrite
// must invalidate every NIC-side cache through the in-band RESP3 pushes.
func TestTrackingSmokeNicServedReads(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Slaves: 1, Clients: 2, Seed: 47,
		KeySpace: 100, GetRatio: 1, Zipf: true, Tracking: true,
		NicReads: NicReadsClients, SKV: core.DefaultConfig()})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("initial replication did not complete")
	}
	w := dialRaw(t, c, "seed-writer", c.Groups[0].MasterMachine.Host, core.ClientPort)
	key := func(i int) string { return fmt.Sprintf("key:%010d", i) }
	for i := 0; i < 100; i++ {
		w.conn.Send(resp.EncodeCommand("SET", key(i), fmt.Sprintf("seed%d", i)))
	}
	c.Eng.RunFor(100 * sim.Millisecond) // replicate into the NIC replica

	c.StartClients()
	c.Eng.RunFor(150 * sim.Millisecond) // caches fill from ARM-served GETs
	for i := 0; i < 20; i++ {
		w.conn.Send(resp.EncodeCommand("SET", key(i), fmt.Sprintf("new%d", i)))
	}
	c.Eng.RunFor(100 * sim.Millisecond)
	for _, cl := range c.Clients {
		cl.Stop()
	}
	c.Eng.RunFor(100 * sim.Millisecond)

	hits, invals, entries := requireCachesCoherent(t, "nic-clients", c)
	if hits == 0 || entries == 0 {
		t.Fatalf("NIC-served tracking inert: hits=%d entries=%d", hits, entries)
	}
	if invals == 0 {
		t.Fatal("overwrites through the host never invalidated the NIC-side caches")
	}
	if c.Groups[0].NicKV.InvalidationsPushed.Value() == 0 {
		t.Fatal("NIC invalidation counter never moved")
	}
	if c.Master.TrackingLen() != 0 {
		t.Fatalf("host recorded %d tracked keys in NIC-clients mode", c.Master.TrackingLen())
	}
}

// ---- the tracking contract, on every serving mode -----------------------

// trackMode is one place a connection can track from: where its data
// connection lands, where its invalidations arrive, and which table holds
// its interest.
type trackMode struct {
	name string
	cfg  Config
	// nicData: the data connection is NIC-served (NicReads=clients).
	// redirect: the reader subscribes on the NIC port and tracks with
	// REDIRECT, so pushes arrive on that channel, not the data connection.
	nicData, redirect bool
	on                []string // the CLIENT TRACKING ON the reader sends
	// other asks for the other mode while tracking is on; otherReply is
	// the exact reply, after which the interest must still be in force.
	other      []string
	otherReply string
	// table reports the interest table that serves this mode.
	table func(c *Cluster) (keys, subs int)
}

func trackModes() []trackMode {
	skv := Config{Kind: KindSKV, Slaves: 1, Clients: 0, Seed: 53, SKV: core.DefaultConfig()}
	nicServed := skv
	nicServed.NicReads = NicReadsClients
	nic := func(c *Cluster) (int, int) {
		return c.Groups[0].NicKV.TrackingLen(), c.Groups[0].NicKV.TrackingSubscribers()
	}
	return []trackMode{{
		name: "in-band",
		cfg:  Config{Kind: KindTCP, Clients: 0, Seed: 51},
		on:   []string{"CLIENT", "TRACKING", "ON"},
		// No offload layer to forward to: REDIRECT tracks in-band, which is
		// the mode already in force.
		other:      []string{"CLIENT", "TRACKING", "ON", "REDIRECT", "elsewhere"},
		otherReply: "+OK",
		table:      func(c *Cluster) (int, int) { return c.Master.TrackingLen(), c.Master.TrackingSubscribers() },
	}, {
		name:       "redirect",
		cfg:        skv,
		redirect:   true,
		on:         []string{"CLIENT", "TRACKING", "ON", "REDIRECT", "reader"},
		other:      []string{"CLIENT", "TRACKING", "ON"},
		otherReply: "-ERR You can't switch REDIRECT on/off or change its target before disabling tracking for this client",
		table:      nic,
	}, {
		name:       "nic-served",
		cfg:        nicServed,
		nicData:    true,
		on:         []string{"CLIENT", "TRACKING", "ON"},
		other:      []string{"CLIENT", "TRACKING", "ON", "REDIRECT", "reader"},
		otherReply: "-ERR syntax error in CLIENT TRACKING",
		table:      nic,
	}}
}

// trackEnv is one contract row's deployment: a reader that turned tracking
// on and a writer on the master.
type trackEnv struct {
	t      *testing.T
	c      *Cluster
	mode   trackMode
	reader *rawClient
	sub    *rawClient // redirect mode's subscription channel
	feed   []byte     // what the subscription channel received
	writer *rawClient
}

func newTrackEnv(t *testing.T, m trackMode) *trackEnv {
	c := Build(m.cfg)
	if m.cfg.Kind == KindSKV && !c.AwaitReplication(2*sim.Second) {
		t.Fatal("initial replication did not complete")
	}
	g := c.Groups[0]
	e := &trackEnv{t: t, c: c, mode: m}
	e.writer = dialRaw(t, c, "writer", g.MasterMachine.Host, core.ClientPort)
	if m.redirect {
		e.sub = dialRaw(t, c, "sub", g.MasterMachine.NIC, core.NicPort)
		e.sub.conn.SetHandler(func(data []byte) { e.feed = append(e.feed, data...) })
		e.sub.conn.Send(core.EncodeTrackHello("reader"))
	}
	data := g.MasterMachine.Host
	if m.nicData {
		data = g.MasterMachine.NIC
	}
	e.reader = dialRaw(t, c, "reader", data, core.ClientPort)
	for _, k := range []string{"k", "a", "b"} {
		e.do(e.writer, "SET", k, "v1")
	}
	e.c.Eng.RunFor(20 * sim.Millisecond) // reaches the NIC replica too
	e.expect(e.reader, "+OK", m.on...)
	return e
}

// do sends one command and returns its reply (pushes skipped).
func (e *trackEnv) do(rc *rawClient, args ...string) resp.Value {
	e.t.Helper()
	n := len(rc.vals)
	rc.conn.Send(resp.EncodeCommand(args...))
	e.c.Eng.RunFor(20 * sim.Millisecond)
	for _, v := range rc.vals[n:] {
		if !v.IsPush() {
			return v
		}
	}
	e.t.Fatalf("%s: no reply to %q", e.mode.name, args)
	return resp.Value{}
}

// expect fails unless the reply to args is exactly want ("+OK", "-ERR ...").
func (e *trackEnv) expect(rc *rawClient, want string, args ...string) {
	e.t.Helper()
	if v := e.do(rc, args...); string(rune(v.Type))+string(v.Str) != want {
		e.t.Fatalf("%s: %q replied %q, want %q", e.mode.name, args, v.String(), want)
	}
}

// pushes lists the keys invalidated at the reader so far.
func (e *trackEnv) pushes() []string {
	e.t.Helper()
	var keys []string
	if e.sub != nil {
		if !core.ParseSubscriberFrames(e.feed, func() {}, func(k string) { keys = append(keys, k) }) {
			e.t.Fatalf("%s: malformed subscription feed", e.mode.name)
		}
		return keys
	}
	for _, v := range e.reader.vals {
		if v.IsPush() {
			keys = append(keys, string(v.Array[1].Str))
		}
	}
	return keys
}

// overwriteExpect has the writer overwrite k and checks the invalidations
// the reader has seen.
func (e *trackEnv) overwriteExpect(want ...string) {
	e.t.Helper()
	e.do(e.writer, "SET", "k", "v2")
	if got := e.pushes(); fmt.Sprint(got) != fmt.Sprint(want) {
		e.t.Fatalf("%s: invalidations %q, want %q", e.mode.name, got, want)
	}
}

func (e *trackEnv) expectTable(keys, subs int) {
	e.t.Helper()
	if k, s := e.mode.table(e.c); k != keys || s != subs {
		e.t.Fatalf("%s: interest table keys=%d subs=%d, want %d/%d", e.mode.name, k, s, keys, subs)
	}
}

// TestTrackingContract holds every serving mode — host in-band (the
// baselines), host REDIRECT to Nic-KV (SKV) and NIC-served reads — to the
// same CLIENT TRACKING behaviour, row by row.
func TestTrackingContract(t *testing.T) {
	rows := []struct {
		name string
		run  func(e *trackEnv)
	}{
		{"write-pushes-once", func(e *trackEnv) {
			e.do(e.reader, "GET", "k")
			e.overwriteExpect("k")
		}},
		{"off-stops-pushes", func(e *trackEnv) {
			e.do(e.reader, "GET", "k")
			e.expect(e.reader, "+OK", "CLIENT", "TRACKING", "OFF")
			e.overwriteExpect()
			e.expectTable(0, 0)
		}},
		// Re-sending ON in the mode in force keeps the interest; the host
		// used to drop it, and the cached key was never invalidated.
		{"repeated-on-keeps-interest", func(e *trackEnv) {
			e.do(e.reader, "GET", "k")
			e.expect(e.reader, "+OK", e.mode.on...)
			e.overwriteExpect("k")
		}},
		{"mode-switch-rejected", func(e *trackEnv) {
			e.do(e.reader, "GET", "k")
			e.expect(e.reader, e.mode.otherReply, e.mode.other...)
			e.overwriteExpect("k")
		}},
		{"error-replies", func(e *trackEnv) {
			e.expect(e.reader, "-ERR unknown CLIENT subcommand", "CLIENT", "NOSUCH")
			e.expect(e.reader, "-ERR syntax error in CLIENT TRACKING", "CLIENT", "TRACKING", "MAYBE")
		}},
		{"disconnect-drops-interest", func(e *trackEnv) {
			e.do(e.reader, "GET", "a")
			e.do(e.reader, "GET", "b")
			e.expectTable(2, 1)
			if e.mode.redirect && e.c.Master.TrackingLen() != 0 {
				e.t.Fatalf("redirect mode recorded %d keys on the host", e.c.Master.TrackingLen())
			}
			e.reader.conn.Close()
			e.c.Eng.RunFor(20 * sim.Millisecond)
			e.expectTable(0, 0)
			if !e.mode.redirect {
				return
			}
			// The subscription channel's own close disarms its subscriber.
			sub2 := dialRaw(e.t, e.c, "sub2", e.c.Groups[0].MasterMachine.NIC, core.NicPort)
			sub2.conn.Send(core.EncodeTrackHello("reader2"))
			e.c.Eng.RunFor(20 * sim.Millisecond)
			e.expectTable(0, 1)
			sub2.conn.Close()
			e.c.Eng.RunFor(20 * sim.Millisecond)
			e.expectTable(0, 0)
		}},
	}
	for _, m := range trackModes() {
		t.Run(m.name, func(t *testing.T) {
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					t.Parallel()
					row.run(newTrackEnv(t, m))
				})
			}
		})
	}
}

// TestTrackingRedirectLongKeyInvalidated is the stale-read regression for
// keys of 64 KiB and more: the interest and invalidation frames used to
// carry a 16-bit key length, so Nic-KV recorded the interest under a
// truncated key, the later SET's fan-out never matched it, no invalidation
// was pushed, and the reader's cached copy stayed — stale — forever. A
// tracked GET followed by another client's SET must push an invalidation
// naming exactly the key that was read, however long it is.
func TestTrackingRedirectLongKeyInvalidated(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Slaves: 1, Clients: 0, Seed: 59, SKV: core.DefaultConfig()})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	g := c.Groups[0]
	// The reader's invalidation feed: what its cache would evict.
	sub := dialRaw(t, c, "long-sub", g.MasterMachine.NIC, core.NicPort)
	var feed []byte
	sub.conn.SetHandler(func(data []byte) { feed = append(feed, data...) })
	sub.conn.Send(core.EncodeTrackHello("reader"))

	reader := dialRaw(t, c, "long-reader", g.MasterMachine.Host, core.ClientPort)
	writer := dialRaw(t, c, "long-writer", g.MasterMachine.Host, core.ClientPort)
	reader.conn.Send(resp.EncodeCommand("client", "tracking", "on", "redirect", "reader"))
	for _, key := range []string{"short", strings.Repeat("k", 70000)} {
		writer.conn.Send(resp.EncodeCommand("SET", key, "v1"))
		c.Eng.RunFor(20 * sim.Millisecond)
		reader.conn.Send(resp.EncodeCommand("GET", key)) // tracked: the reader now caches v1
		c.Eng.RunFor(20 * sim.Millisecond)
		if got := reader.vals[len(reader.vals)-1]; string(got.Str) != "v1" {
			t.Fatalf("%d-byte key: tracked GET returned %q", len(key), got.Str)
		}
		feed = feed[:0]
		writer.conn.Send(resp.EncodeCommand("SET", key, "v2"))
		c.Eng.RunFor(20 * sim.Millisecond)

		var invalidated []string
		if !core.ParseSubscriberFrames(feed, func() {}, func(k string) { invalidated = append(invalidated, k) }) {
			t.Fatalf("%d-byte key: malformed invalidation feed (%d bytes)", len(key), len(feed))
		}
		if len(invalidated) != 1 || invalidated[0] != key {
			t.Fatalf("%d-byte key: SET pushed %d invalidations naming the read key %t — the cached v1 would be served stale",
				len(key), len(invalidated), len(invalidated) == 1 && invalidated[0] == key)
		}
	}
	if got := g.NicKV.TrackingLen(); got != 0 {
		t.Fatalf("NIC interest table still holds %d keys after both invalidations", got)
	}
}

// ---- satellite: cache/keyspace equality across layouts ------------------

// TestTrackingCacheCoherentAcrossShards: the sharded execution pipeline
// must not reorder a write's merge against its invalidation push in any
// way a client could observe — after a mixed Zipfian run at 1, 2 and 4
// host shards every surviving cache entry equals the master's value.
func TestTrackingCacheCoherentAcrossShards(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		c := Build(Config{Kind: KindSKV, Slaves: 1, Clients: 2, Seed: 61,
			KeySpace: 400, GetRatio: 0.7, Zipf: true, Tracking: true,
			Params: shardParams(shards), SKV: core.DefaultConfig()})
		runTracked(t, c, 250*sim.Millisecond, 150*sim.Millisecond)
		label := fmt.Sprintf("shards=%d", shards)
		hits, invals, _ := requireCachesCoherent(t, label, c)
		if hits == 0 || invals == 0 {
			t.Fatalf("%s: tracking inert: hits=%d invals=%d", label, hits, invals)
		}
	}
}

// TestTrackingCacheCoherentMultiMaster: hash-slot deployments track
// in-band per master; MOVED/ASK redirects drop the affected key. After a
// routed mixed load, each cache entry must match the owning group's
// master.
func TestTrackingCacheCoherentMultiMaster(t *testing.T) {
	c := Build(Config{Kind: KindSKV,
		Cluster: ClusterOpts{Masters: 2, SlavesPerMaster: 1},
		Clients: 2, Pipeline: 2, Seed: 63,
		KeySpace: 400, GetRatio: 0.7, Zipf: true, Tracking: true,
		SKV: core.DefaultConfig()})
	runTracked(t, c, 250*sim.Millisecond, 150*sim.Millisecond)
	hits, invals, _ := requireCachesCoherent(t, "multimaster", c)
	if hits == 0 || invals == 0 {
		t.Fatalf("multimaster tracking inert: hits=%d invals=%d", hits, invals)
	}
	var moved uint64
	for _, cl := range c.Clients {
		moved += cl.Stats().Moved
	}
	if moved == 0 {
		t.Fatal("no MOVED redirect exercised the cache-drop path")
	}
}

// ---- chaos: no stale read survives failover or resharding ---------------

// trackedScenario arms tracking and a read-heavy load on a canned chaos
// scenario.
func trackedScenario(s Scenario) Scenario {
	s.Config.Tracking = true
	s.Config.GetRatio = 0.6
	s.Config.Clients = 2
	return s
}

// TestTrackingChaosNoStaleReads re-runs every chaos scenario with tracked
// redirect-mode clients: after convergence, no client may hold a cache
// entry differing from what the surviving master serves — across master
// crash/restart, slave churn, partitions and lossy links.
func TestTrackingChaosNoStaleReads(t *testing.T) {
	var invals uint64
	for _, s := range ChaosScenarios() {
		s := trackedScenario(s)
		t.Run(s.Name, func(t *testing.T) {
			c, h, err := RunScenario(s)
			if err != nil {
				t.Fatalf("convergence failed:\n%v\ntrace:\n%s", err, h.TraceString())
			}
			_, inv, _ := requireCachesCoherent(t, s.Name, c)
			invals += inv
		})
	}
	if invals == 0 {
		t.Error("no chaos scenario ever applied an invalidation — the oracle tested nothing")
	}
}

// TestTrackingReshardNoStaleReads runs the live slot-migration scenario
// with tracked slot clients: the ledger oracle (acknowledged writes equal
// final-owner values) must hold and no cache entry may outlive the move with
// a stale value.
func TestTrackingReshardNoStaleReads(t *testing.T) {
	s, _ := ReshardScenario(7, true)
	c, h, err := RunScenario(s)
	if err != nil {
		t.Fatalf("%v\ntrace:\n%s", err, h.TraceString())
	}
	hits, _, _ := requireCachesCoherent(t, "reshard", c)
	if hits == 0 {
		t.Fatal("no tracked GET was served locally during the reshard")
	}
	var moved, flushes uint64
	for _, cl := range c.Clients {
		st := cl.Stats()
		moved += st.Moved + st.Asked
		flushes += st.Flushes
	}
	if moved == 0 {
		t.Fatal("no redirect ever reached a tracked client during the move")
	}
	if flushes == 0 {
		t.Fatal("no topology change ever flushed a cache — the migration was invisible to tracking")
	}
}
