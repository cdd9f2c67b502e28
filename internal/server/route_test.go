package server

import (
	"fmt"
	"strings"
	"testing"

	"skv/internal/sim"
)

// routedServer builds a server with both planes on: HostShards shard procs
// behind the dispatch/merge stage, fronted by RouteListeners routing procs that
// own RESP parse + key-hash routing for their pinned connections.
func (w *world) routedServer(name string, port, shards, listeners int) *Server {
	return w.build(Options{Name: name, Port: port, Params: w.shaped(shards, listeners)})
}

// TestRoutedBarrierOnlyPipeline: a barrier admitted from a routing proc at
// inflight == 0 must still execute (it defers through the hold queue to the
// dispatch proc and must not re-defer itself forever).
func TestRoutedBarrierOnlyPipeline(t *testing.T) {
	w := newWorld(63)
	srv := w.routedServer("s", 6379, 4, 2)
	c := w.dial(t, srv)
	// First command on a quiet connection is a barrier: nothing in flight.
	if v := c.do(t, "DBSIZE"); v.Int != 0 {
		t.Fatalf("DBSIZE: %s", v.String())
	}
	// Back-to-back barriers with nothing between them.
	got := c.sendPipe(500*sim.Millisecond, pipeOf("FLUSHALL", "DBSIZE", "KEYS *"))
	if len(got) != 3 {
		t.Fatalf("barrier-only pipeline: %d replies, want 3", len(got))
	}
	if !got[0].IsOK() || got[1].Int != 0 || len(got[2].Array) != 0 {
		t.Fatalf("barrier-only pipeline replies: %v", render(got))
	}
	if n := srv.Metrics().Counter("server.shard.barriers").Value(); n != 4 {
		t.Fatalf("barriers = %d, want 4", n)
	}
}

// TestShardedGatedErrorMidPipeline is the admission-plane reply regression
// (satellite): an error reply produced on the admission plane (write gate,
// READONLY) for a pipelined client whose earlier commands are still in
// flight must be re-sequenced, not emitted early — and must not be lost.
func TestShardedGatedErrorMidPipeline(t *testing.T) {
	eachLayout(t, 65, layouts, func(t *testing.T, w *world, l layout) {
		srv := l.server(w, "s")
		c := w.dial(t, srv)
		c.do(t, "SET", "k", "v")
		srv.WriteGate = func() string { return "NOREPLICAS Not enough good replicas to write." }
		// GET is routed (with shard cores, in flight on one when the gated SET
		// is admitted); the SET's error reply must wait its turn; PING is inline
		// behind both.
		got := c.sendPipe(500*sim.Millisecond, pipeOf("GET k", "SET x y", "PING"))
		if len(got) != 3 {
			t.Fatalf("%d replies, want 3 (%v)", len(got), render(got))
		}
		if got[0].String() != "v" {
			t.Fatalf("reply 0 = %s, want v", got[0].String())
		}
		if !got[1].IsError() || !strings.Contains(got[1].String(), "NOREPLICAS") {
			t.Fatalf("reply 1 = %s, want NOREPLICAS error", got[1].String())
		}
		if got[2].String() != "PONG" {
			t.Fatalf("reply 2 = %s, want PONG", got[2].String())
		}
		if v := c.do(t, "EXISTS", "x"); v.Int != 0 {
			t.Fatal("gated write landed")
		}
	})
}

// TestRoutedListenersOneIsLegacy: RouteListeners = 1 (or 0) must not build a
// routing plane at all — the dispatch-owned pipeline is bit-for-bit PR-5.
func TestRoutedListenersOneIsLegacy(t *testing.T) {
	w := newWorld(68)
	for _, listeners := range []int{0, 1} {
		srv := w.routedServer(fmt.Sprintf("s%d", listeners), 6379, 4, listeners)
		if n := srv.NumRouteListeners(); n != 0 {
			t.Fatalf("Listeners=%d: NumRouteListeners = %d, want 0", listeners, n)
		}
		if n := len(srv.RouteRegistries()); n != 0 {
			t.Fatalf("Listeners=%d: RouteRegistries = %d, want 0", listeners, n)
		}
	}
	// And a single-threaded server (HostShards <= 1) ignores RouteListeners entirely.
	srv := w.routedServer("s1t", 6379, 1, 4)
	if n := srv.NumRouteListeners(); n != 0 {
		t.Fatalf("Shards=1: NumRouteListeners = %d, want 0", n)
	}
	c := w.dial(t, srv)
	if v := c.do(t, "SET", "k", "v"); !v.IsOK() {
		t.Fatalf("SET: %s", v.String())
	}
}
