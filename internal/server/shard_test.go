package server

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"skv/internal/resp"
	"skv/internal/sim"
)

// shardedServer builds a server with shard procs on cores of their own.
func (w *world) shardedServer(name string, port, shards int) *Server {
	return w.build(Options{Name: name, Port: port, Params: w.shaped(shards, 0)})
}

// server builds a server with this pipeline shape.
func (l layout) server(w *world, name string) *Server {
	return w.build(Options{Name: name, Params: w.shaped(l.shards, l.listeners)})
}

// TestBasicCommands drives routed, inline and barrier commands from two
// connections through every pipeline shape, then checks what each shape
// exposes: shard cores and registries only for shards that own a core,
// routing procs only with listeners > 1.
func TestBasicCommands(t *testing.T) {
	eachLayout(t, 41, layouts, func(t *testing.T, w *world, l layout) {
		srv := l.server(w, "s")
		ownCores := l.shards
		if l.shards == 1 {
			ownCores = 0 // the one shard runs on the dispatch proc
		}
		if srv.NumShards() != l.shards {
			t.Fatalf("NumShards = %d", srv.NumShards())
		}
		if n := len(srv.ShardRegistries()); n != ownCores {
			t.Fatalf("ShardRegistries = %d, want %d", n, ownCores)
		}
		if n := len(srv.ShardProcs()); n != ownCores {
			t.Fatalf("ShardProcs = %d, want %d", n, ownCores)
		}
		if n := srv.NumRouteListeners(); n != l.listeners {
			t.Fatalf("NumRouteListeners = %d", n)
		}
		if n := len(srv.RouteRegistries()); n != l.listeners {
			t.Fatalf("RouteRegistries = %d", n)
		}
		if n := len(srv.RouteProcs()); n != l.listeners {
			t.Fatalf("RouteProcs = %d", n)
		}
		// Connections pin round-robin: with two clients, each listener owns one.
		c1 := w.dial(t, srv)
		c2 := w.dial(t, srv)
		if v := c1.do(t, "SET", "k", "v"); !v.IsOK() {
			t.Fatalf("SET: %s", v.String())
		}
		if v := c2.do(t, "GET", "k"); v.String() != "v" {
			t.Fatalf("GET: %s", v.String())
		}
		if srv.CommandsProcessed() < 2 {
			t.Fatalf("CommandsProcessed=%d", srv.CommandsProcessed())
		}
		if v := c1.do(t, "PING"); v.String() != "PONG" {
			t.Fatalf("PING: %s", v.String())
		}
		if v := c1.do(t, "WHATISTHIS"); !v.IsError() {
			t.Fatal("unknown command accepted")
		}
		// SELECT stays connection-local on the dispatch plane.
		if v := c1.do(t, "SELECT", "1"); !v.IsOK() {
			t.Fatalf("SELECT: %s", v.String())
		}
		if v := c1.do(t, "GET", "k"); !v.Null {
			t.Fatalf("db1 GET: %s", v.String())
		}
		if v := c1.do(t, "SELECT", "99"); !v.IsError() {
			t.Fatal("SELECT 99 accepted")
		}
		c1.do(t, "SELECT", "0")
		// Barrier commands fan in across shards, executed on the dispatch proc.
		if v := c2.do(t, "DBSIZE"); v.Int != 1 {
			t.Fatalf("DBSIZE: %s", v.String())
		}
		if v := c1.do(t, "FLUSHALL"); !v.IsOK() {
			t.Fatalf("FLUSHALL: %s", v.String())
		}
		if v := c1.do(t, "DBSIZE"); v.Int != 0 {
			t.Fatalf("DBSIZE after FLUSHALL: %s", v.String())
		}
		if routed := srv.Metrics().Counter("server.shard.routed").Value(); routed == 0 {
			t.Fatal("no commands were routed to a shard")
		}
		if fenced := srv.Metrics().Counter("server.shard.barriers").Value(); fenced == 0 {
			t.Fatal("no barrier commands were counted")
		}
		for i, reg := range srv.RouteRegistries() {
			if got := reg.Counter("route.conns").Value(); got != 1 {
				t.Fatalf("listener %d adopted %d conns, want 1", i, got)
			}
			if got := reg.Counter("route.cmds").Value(); got == 0 {
				t.Fatalf("listener %d routed no commands", i)
			}
		}
		// The routing cores, not the dispatch core, paid for parse + routing.
		for i, rp := range srv.RouteProcs() {
			if rp.Core.BusyUntil() == 0 {
				t.Fatalf("routing core %d never charged", i)
			}
		}
	})
}

// TestPipelinedRepliesInOrder is the re-sequencing contract: a pipelined
// burst mixing routed, inline, and barrier commands must come back in exact
// request order even though shards finish asynchronously and, under the
// routing plane, barriers defer from the routing proc to the dispatch proc.
func TestPipelinedRepliesInOrder(t *testing.T) {
	eachLayout(t, 42, append(slices.Clip(layouts), layout{4, 4}), func(t *testing.T, w *world, l layout) {
		srv := l.server(w, "s")
		c := w.dial(t, srv)

		var pipe []byte
		var want []string
		add := func(expect string, args ...string) {
			pipe = append(pipe, resp.EncodeCommand(args...)...)
			want = append(want, expect)
		}
		for i := 0; i < 12; i++ {
			add("OK", "SET", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		}
		add("PONG", "PING")                       // inline between routed writes
		add("OK", "MSET", "k0", "m0", "k7", "m7") // cross-shard barrier
		add(":12", "DBSIZE")                      // barrier: 12 keys, MSET overwrote two
		for i := 0; i < 12; i++ {
			exp := fmt.Sprintf("v%d", i)
			if i == 0 {
				exp = "m0"
			} else if i == 7 {
				exp = "m7"
			}
			add(exp, "GET", fmt.Sprintf("k%d", i))
		}
		add(":2", "DEL", "k0", "k7") // multi-shard DEL barrier
		add(":10", "DBSIZE")

		got := render(c.sendPipe(500*sim.Millisecond, pipe))
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("replies %v\nwant    %v", got, want)
		}
		if fenced := srv.Metrics().Counter("server.shard.barriers").Value(); fenced == 0 {
			t.Fatal("no barriers counted")
		}
	})
}

// TestTwoClientsInterleaved checks per-client sequencing is independent —
// across shards and across listeners: two pipelined clients each see their
// own replies in order, and the serialized keyspace converges.
func TestTwoClientsInterleaved(t *testing.T) {
	eachLayout(t, 43, layouts, func(t *testing.T, w *world, l layout) {
		srv := l.server(w, "s")
		c1 := w.dial(t, srv)
		c2 := w.dial(t, srv)
		var p1, p2 []byte
		for i := 0; i < 20; i++ {
			p1 = append(p1, resp.EncodeCommand("SET", fmt.Sprintf("a%d", i), "1")...)
			p2 = append(p2, resp.EncodeCommand("SET", fmt.Sprintf("b%d", i), "2")...)
		}
		p1 = append(p1, resp.EncodeCommand("DBSIZE")...)
		p2 = append(p2, resp.EncodeCommand("GET", "b3")...)
		b1, b2 := len(c1.got), len(c2.got)
		w.eng.After(0, func() { c1.conn.Send(p1) })
		w.eng.After(0, func() { c2.conn.Send(p2) })
		w.run()
		g1, g2 := c1.got[b1:], c2.got[b2:]
		if len(g1) != 21 || len(g2) != 21 {
			t.Fatalf("reply counts: %d, %d (want 21 each)", len(g1), len(g2))
		}
		for i := 0; i < 20; i++ {
			if !g1[i].IsOK() || !g2[i].IsOK() {
				t.Fatalf("SET reply %d: %s / %s", i, g1[i].String(), g2[i].String())
			}
		}
		// The two bursts interleave in virtual time: c1's DBSIZE barrier sees at
		// least its own 20 keys, at most all 40.
		if g1[20].Int < 20 || g1[20].Int > 40 {
			t.Fatalf("DBSIZE = %s, want 20..40", g1[20].String())
		}
		if g2[20].String() != "2" {
			t.Fatalf("GET b3 = %s", g2[20].String())
		}
		if n := srv.Store().DBSize(0); n != 40 {
			t.Fatalf("final DBSize = %d, want 40", n)
		}
	})
}

// TestShardedScanAndRandomKey exercises the shard-aware cursor through the
// wire protocol.
func TestShardedScanAndRandomKey(t *testing.T) {
	w := newWorld(44)
	srv := w.shardedServer("s", 6379, 4)
	c := w.dial(t, srv)
	want := map[string]bool{}
	var pipe []byte
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("key:%d", i)
		want[k] = true
		pipe = append(pipe, resp.EncodeCommand("SET", k, "v")...)
	}
	w.eng.After(0, func() { c.conn.Send(pipe) })
	w.run()

	got := map[string]bool{}
	cursor := "0"
	for rounds := 0; ; rounds++ {
		if rounds > 200 {
			t.Fatal("SCAN never terminated")
		}
		v := c.do(t, "SCAN", cursor, "COUNT", "9")
		for _, e := range v.Array[1].Array {
			got[string(e.Str)] = true
		}
		cursor = string(v.Array[0].Str)
		if cursor == "0" {
			break
		}
	}
	if len(got) != len(want) {
		t.Fatalf("SCAN covered %d/%d keys", len(got), len(want))
	}
	if v := c.do(t, "RANDOMKEY"); v.Null || !want[v.String()] {
		t.Fatalf("RANDOMKEY = %s", v.String())
	}
	if v := c.do(t, "KEYS", "key:1?"); len(v.Array) != 10 {
		t.Fatalf("KEYS key:1? returned %d", len(v.Array))
	}
}

// TestMasterReplicates: whatever the master's pipeline shape, it feeds the
// ordinary replication pipeline — under the routing plane the PSYNC links
// hand themselves back to the dispatch proc, where the merge stage feeds
// them; slaves (with different shard counts) converge to the same keyspace,
// and offsets agree.
func TestMasterReplicates(t *testing.T) {
	eachLayout(t, 45, layouts, func(t *testing.T, w *world, l layout) {
		master := l.server(w, "m")
		slaves := []*Server{w.shardedServer("sl", 6379, 2), w.server("sl2", 6379)}
		for _, sl := range slaves {
			sl.SlaveOf(master.Stack().Endpoint(), 6379)
		}
		w.run()
		for _, sl := range slaves {
			if !sl.SyncedWithMaster() {
				t.Fatalf("%s did not sync", sl.Name())
			}
		}
		c := w.dial(t, master)
		var pipe []byte
		for i := 0; i < 40; i++ {
			pipe = append(pipe, resp.EncodeCommand("SET", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))...)
		}
		pipe = append(pipe, pipeOf("DEL k3 k17", "LPUSH lst a b c")...) // DEL: cross-shard write barrier
		c.sendPipe(sim.Second, pipe)
		for _, sl := range slaves {
			if got := sl.Store().DBSize(0); got != master.Store().DBSize(0) {
				t.Fatalf("%s: DBSize %d, master %d", sl.Name(), got, master.Store().DBSize(0))
			}
			for i := 0; i < 40; i++ {
				k := fmt.Sprintf("k%d", i)
				mr, _ := master.Store().Exec(0, [][]byte{[]byte("GET"), []byte(k)})
				sr, _ := sl.Store().Exec(0, [][]byte{[]byte("GET"), []byte(k)})
				if string(mr) != string(sr) {
					t.Fatalf("%s: %s diverged: %q vs %q", sl.Name(), k, sr, mr)
				}
			}
			if sl.MasterOffset() != master.ReplOffset() {
				t.Fatalf("%s: offset %d, master %d", sl.Name(), sl.MasterOffset(), master.ReplOffset())
			}
		}
	})
}

// TestWait: WAIT counts acked replicas without fencing the pipeline. The
// target offset is the caller's own last propagated write, so WAIT takes
// the fence-free classWait path and must not touch the barrier counter.
func TestWait(t *testing.T) {
	eachLayout(t, 46, layouts, func(t *testing.T, w *world, l layout) {
		master := l.server(w, "m")
		for _, name := range []string{"sl1", "sl2"} {
			w.server(name, 6379).SlaveOf(master.Stack().Endpoint(), 6379)
		}
		w.run()
		c := w.dial(t, master)
		c.do(t, "SET", "k", "v")
		counter := func(name string) uint64 { return master.Metrics().Counter(name).Value() }
		barriers := counter("server.shard.barriers")
		// The WAIT reply defers until the replicas ACK (every 100ms cron), so
		// run well past the ACK period.
		wait := func(cmds ...string) []resp.Value {
			t.Helper()
			got := c.sendPipe(700*sim.Millisecond, pipeOf(cmds...))
			if len(got) != len(cmds) {
				t.Fatalf("%v: %d replies, want %d", cmds, len(got), len(cmds))
			}
			if got := counter("server.shard.barriers"); got != barriers {
				t.Fatalf("%v took the barrier path: barriers %d -> %d", cmds, barriers, got)
			}
			return got
		}
		if v := wait("WAIT 2 2000")[0]; v.Type != resp.TypeInteger || v.Int != 2 {
			t.Fatalf("WAIT = %s, want :2", v.String())
		}
		if got := counter("server.shard.waits"); got != 1 {
			t.Fatalf("server.shard.waits = %d, want 1", got)
		}
		// Pipelined SET+WAIT in one frame: the WAIT runs at its turn, after the
		// SET merged (recording its offset) — parked in the client's pending turns
		// while the SET is on a shard core — and resolves against that write,
		// still with no fence.
		got := wait("SET k2 v2", "WAIT 2 2000")
		if !got[0].IsOK() {
			t.Fatalf("pipelined SET: %s", got[0].String())
		}
		if got[1].Type != resp.TypeInteger || got[1].Int != 2 {
			t.Fatalf("pipelined WAIT = %s, want :2", got[1].String())
		}
		if v := wait("WAIT 1 500")[0]; v.Type != resp.TypeInteger || v.Int < 1 {
			t.Fatalf("WAIT 1: %s", v.String())
		}
		// Asking for more replicas than exist must time out with the count.
		if v := wait("WAIT 5 200")[0]; v.Type != resp.TypeInteger || v.Int >= 5 {
			t.Fatalf("WAIT 5 should time out with <5: %s", v.String())
		}
	})
}

// TestShardedFullSyncSkipsExpiredKeys is the satellite regression: a key
// whose TTL lapsed before the slave attached must not be resurrected by the
// full-sync RDB dump.
func TestShardedFullSyncSkipsExpiredKeys(t *testing.T) {
	for _, shards := range []int{1, 4} {
		w := newWorld(47)
		// No active expiry: the lapsed key stays resident.
		master := w.build(Options{Name: "m", Seed: 1, Params: w.shaped(shards, 0), DisableCron: true})
		c := w.dial(t, master)
		c.do(t, "SET", "live", "v")
		c.do(t, "SET", "dead", "v")
		c.do(t, "PEXPIRE", "dead", "10")
		w.run() // 500ms of virtual time: the TTL lapses
		if master.Store().DBSize(0) != 2 {
			t.Fatalf("shards=%d: master should still hold the lapsed key physically, DBSize=%d",
				shards, master.Store().DBSize(0))
		}
		slave := w.build(Options{Name: "sl", Seed: 2, DisableCron: true})
		slave.SlaveOf(master.Stack().Endpoint(), 6379)
		w.run()
		if !slave.SyncedWithMaster() {
			t.Fatalf("shards=%d: slave did not sync", shards)
		}
		if got := slave.Store().DBSize(0); got != 1 {
			t.Fatalf("shards=%d: slave DBSize=%d, want 1 (expired key must not ride the dump)", shards, got)
		}
		reply, _ := slave.Store().Exec(0, [][]byte{[]byte("EXISTS"), []byte("dead")})
		if string(reply) != ":0\r\n" {
			t.Fatalf("shards=%d: expired key resurrected on slave: %q", shards, reply)
		}
	}
}

// TestReadonlySlave: the READONLY veto happens at admission on the dispatch
// plane, before routing, and its error re-sequences per client; reads are
// served.
func TestReadonlySlave(t *testing.T) {
	eachLayout(t, 48, layouts, func(t *testing.T, w *world, l layout) {
		master := w.server("m", 6379)
		slave := l.server(w, "sl")
		slave.SlaveOf(master.Stack().Endpoint(), 6379)
		w.run()
		if !slave.SyncedWithMaster() {
			t.Fatal("slave did not sync")
		}
		c := w.dial(t, slave)
		if v := c.do(t, "SET", "k", "v"); !v.IsError() || !strings.Contains(v.String(), "READONLY") {
			t.Fatalf("slave accepted write: %s", v.String())
		}
		if v := c.do(t, "GET", "nope"); !v.Null {
			t.Fatalf("slave read: %s", v.String())
		}
	})
}
