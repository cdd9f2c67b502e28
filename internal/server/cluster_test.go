package server

import (
	"fmt"
	"strings"
	"testing"

	"skv/internal/sim"
	"skv/internal/slots"
)

// clusterServer builds a server attached to a routing table (optionally
// sharded, to cover the sequencedReply redirect path).
func clusterServer(w *world, name string, shards int, cr *ClusterRouting) *Server {
	return w.build(Options{Name: name, Params: w.shaped(shards, 0), Cluster: cr})
}

// twoGroupMap splits the slot space evenly between this node (group 0,
// address "self") and a remote group 1 at address "other".
func twoGroupMap(t *testing.T) *slots.Map {
	t.Helper()
	m, err := slots.NewMap(2, nil, []string{"self", "other"})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Golden slot facts the tests lean on (pinned in internal/slots):
// Slot("bar")=5061 and Slot("hello")=866 → group 0 under an even 2-way
// split; Slot("foo")=12182 → group 1.

func TestClusterSlotCheckRedirects(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			w := newWorld(9)
			m := twoGroupMap(t)
			srv := clusterServer(w, "n0", shards, &ClusterRouting{Self: 0, Map: m, Port: 6379})
			c := w.dial(t, srv)

			if v := c.do(t, "SET", "bar", "v"); !v.IsOK() {
				t.Fatalf("SET of an owned key: %s", v.String())
			}
			if v := c.do(t, "GET", "bar"); v.String() != "v" {
				t.Fatalf("GET of an owned key: %s", v.String())
			}
			v := c.do(t, "SET", "foo", "v")
			if !v.IsError() || v.String() != "MOVED 12182 other:6379" {
				t.Fatalf("SET of a foreign key: %q", v.String())
			}
			if got := srv.Store().DBSize(0); got != 1 {
				t.Fatalf("foreign key executed anyway: dbsize=%d", got)
			}
			// Multi-key commands: same slot via hashtags works, spanning
			// slots is CROSSSLOT.
			if v := c.do(t, "MSET", "{bar}x", "1", "{bar}y", "2"); !v.IsOK() {
				t.Fatalf("same-slot MSET: %s", v.String())
			}
			v = c.do(t, "MSET", "bar", "1", "hello", "2")
			if !v.IsError() || !strings.HasPrefix(v.String(), "CROSSSLOT") {
				t.Fatalf("cross-slot MSET: %q", v.String())
			}
			// Keyless commands are never slot-checked.
			if v := c.do(t, "PING"); v.String() != "PONG" {
				t.Fatalf("PING: %s", v.String())
			}
			if n := srv.Metrics().Counter("server.cluster.moved").Value(); n != 1 {
				t.Fatalf("moved counter = %d, want 1", n)
			}
			if n := srv.Metrics().Counter("server.cluster.crossslot").Value(); n != 1 {
				t.Fatalf("crossslot counter = %d, want 1", n)
			}

			// Resharding the slot to this node (epoch bump) makes the same
			// key acceptable — the check reads the live shared table.
			if err := m.Assign(12182, 12182, 0); err != nil {
				t.Fatalf("Assign: %v", err)
			}
			if v := c.do(t, "SET", "foo", "v"); !v.IsOK() {
				t.Fatalf("SET after reshard: %s", v.String())
			}
		})
	}
}

func TestClusterCommand(t *testing.T) {
	w := newWorld(11)
	m := twoGroupMap(t)
	srv := clusterServer(w, "n0", 0, &ClusterRouting{Self: 0, Map: m, Port: 6379})
	c := w.dial(t, srv)

	if v := c.do(t, "CLUSTER", "KEYSLOT", "foo"); v.Int != 12182 {
		t.Fatalf("KEYSLOT foo = %s", v.String())
	}
	v := c.do(t, "CLUSTER", "SLOTS")
	if len(v.Array) != 2 {
		t.Fatalf("SLOTS returned %d ranges: %s", len(v.Array), v.String())
	}
	first := v.Array[0]
	if first.Array[0].Int != 0 || first.Array[1].Int != 8191 {
		t.Fatalf("first range: %s", first.String())
	}
	if got := first.Array[2].Array[0].String(); got != "self" {
		t.Fatalf("first range addr: %q", got)
	}
	if got := v.Array[1].Array[2].Array[0].String(); got != "other" {
		t.Fatalf("second range addr: %q", got)
	}
	info := c.do(t, "CLUSTER", "INFO").String()
	for _, want := range []string{"cluster_enabled:1", "cluster_slots_assigned:16384",
		"cluster_size:2", "cluster_my_group:0", "cluster_current_epoch:1"} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO missing %q:\n%s", want, info)
		}
	}
	if v := c.do(t, "CLUSTER", "NONSENSE"); !v.IsError() {
		t.Fatalf("unknown subcommand accepted: %s", v.String())
	}
}

// TestClusterCommandOutsideCluster: a single-master server still answers
// CLUSTER (clients probe it), reporting a disabled cluster, and never
// slot-checks commands.
func TestClusterCommandOutsideCluster(t *testing.T) {
	w := newWorld(13)
	srv := w.server("plain", 6379)
	c := w.dial(t, srv)

	if v := c.do(t, "SET", "foo", "v"); !v.IsOK() { // foreign in cluster mode
		t.Fatalf("SET: %s", v.String())
	}
	if v := c.do(t, "CLUSTER", "KEYSLOT", "foo"); v.Int != 12182 {
		t.Fatalf("KEYSLOT: %s", v.String())
	}
	if v := c.do(t, "CLUSTER", "SLOTS"); len(v.Array) != 0 || v.Null {
		t.Fatalf("SLOTS on plain server: %s", v.String())
	}
	info := c.do(t, "CLUSTER", "INFO").String()
	if !strings.Contains(info, "cluster_enabled:0") {
		t.Fatalf("INFO: %s", info)
	}
}

// TestClusterMigrationWindowSource covers the source side of a live slot
// migration at both pipeline shapes: present keys serve locally, absent
// keys ASK to the target, half-present multi-key commands get TRYAGAIN,
// the mover's data commands are exempt, and the SETSLOT NODE flip turns
// the slot's traffic into MOVED.
func TestClusterMigrationWindowSource(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			w := newWorld(17)
			m := twoGroupMap(t)
			srv := clusterServer(w, "n0", shards, &ClusterRouting{Self: 0, Map: m, Port: 6379})
			c := w.dial(t, srv)

			// Slot("bar") = 5061 is owned by group 0. Seed one present key.
			if v := c.do(t, "SET", "bar", "v"); !v.IsOK() {
				t.Fatalf("SET: %s", v.String())
			}
			if v := c.do(t, "CLUSTER", "SETSLOT", "5061", "MIGRATING", "1"); !v.IsOK() {
				t.Fatalf("SETSLOT MIGRATING: %s", v.String())
			}
			// Present key: served at the source, no redirect.
			if v := c.do(t, "GET", "bar"); v.String() != "v" {
				t.Fatalf("GET of a present migrating key: %s", v.String())
			}
			// Absent key in the migrating slot ({bar}gone co-locates): ASK.
			v := c.do(t, "GET", "{bar}gone")
			if !v.IsError() || v.String() != "ASK 5061 other:6379" {
				t.Fatalf("GET of an absent migrating key: %q", v.String())
			}
			// Writes to absent keys redirect too — new keys are born at the
			// target during the window.
			v = c.do(t, "SET", "{bar}new", "x")
			if !v.IsError() || v.String() != "ASK 5061 other:6379" {
				t.Fatalf("SET of an absent migrating key: %q", v.String())
			}
			// Half-present multi-key command: TRYAGAIN.
			v = c.do(t, "MGET", "bar", "{bar}gone")
			if !v.IsError() || !strings.HasPrefix(v.String(), "TRYAGAIN") {
				t.Fatalf("half-present MGET: %q", v.String())
			}
			// The mover's data plane answers absence directly.
			if v := c.do(t, "DUMP", "{bar}gone"); !v.Null {
				t.Fatalf("DUMP of an absent migrating key: %s", v.String())
			}
			// The migration surface reports the slot's keys.
			if v := c.do(t, "CLUSTER", "COUNTKEYSINSLOT", "5061"); v.Int != 1 {
				t.Fatalf("COUNTKEYSINSLOT: %s", v.String())
			}
			v = c.do(t, "CLUSTER", "GETKEYSINSLOT", "5061", "10")
			if len(v.Array) != 1 || v.Array[0].String() != "bar" {
				t.Fatalf("GETKEYSINSLOT: %s", v.String())
			}
			// Move the one key the way the mover does: DUMP + MIGRATEDEL.
			payload := c.do(t, "DUMP", "bar")
			if payload.Null {
				t.Fatal("DUMP of a present key returned nil")
			}
			if v := c.do(t, "MIGRATEDEL", "bar", string(payload.Str)); v.Int != 1 {
				t.Fatalf("MIGRATEDEL: %s", v.String())
			}
			// Now the key is absent: reads ASK.
			v = c.do(t, "GET", "bar")
			if !v.IsError() || v.String() != "ASK 5061 other:6379" {
				t.Fatalf("GET after the move: %q", v.String())
			}
			// The flip: subsequent traffic is MOVED, not ASK.
			epoch := m.Epoch()
			if v := c.do(t, "CLUSTER", "SETSLOT", "5061", "NODE", "1"); !v.IsOK() {
				t.Fatalf("SETSLOT NODE: %s", v.String())
			}
			if m.Epoch() <= epoch {
				t.Fatal("flip did not bump the epoch")
			}
			v = c.do(t, "GET", "bar")
			if !v.IsError() || v.String() != "MOVED 5061 other:6379" {
				t.Fatalf("GET after the flip: %q", v.String())
			}
			if n := srv.Metrics().Counter("server.cluster.asked").Value(); n != 3 {
				t.Fatalf("asked counter = %d, want 3", n)
			}
			if n := srv.Metrics().Counter("server.cluster.tryagain").Value(); n != 1 {
				t.Fatalf("tryagain counter = %d, want 1", n)
			}
		})
	}
}

// TestClusterMigrationWindowTarget covers the import side: without ASKING
// the un-owned slot redirects MOVED; after ASKING exactly one command is
// admitted (the flag is one-shot).
func TestClusterMigrationWindowTarget(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			w := newWorld(19)
			m := twoGroupMap(t)
			srv := clusterServer(w, "n0", shards, &ClusterRouting{Self: 0, Map: m, Port: 6379})
			c := w.dial(t, srv)

			// Slot("foo") = 12182 is owned by group 1; this node imports it.
			if v := c.do(t, "CLUSTER", "SETSLOT", "12182", "IMPORTING", "1"); !v.IsOK() {
				t.Fatalf("SETSLOT IMPORTING: %s", v.String())
			}
			// Without ASKING the table still rules: MOVED.
			v := c.do(t, "SET", "foo", "v1")
			if !v.IsError() || v.String() != "MOVED 12182 other:6379" {
				t.Fatalf("SET without ASKING: %q", v.String())
			}
			// ASKING admits the next command...
			if v := c.do(t, "ASKING"); !v.IsOK() {
				t.Fatalf("ASKING: %s", v.String())
			}
			if v := c.do(t, "SET", "foo", "v1"); !v.IsOK() {
				t.Fatalf("SET with ASKING: %s", v.String())
			}
			// ...and only the next command: the flag is one-shot.
			v = c.do(t, "GET", "foo")
			if !v.IsError() || v.String() != "MOVED 12182 other:6379" {
				t.Fatalf("GET after the one-shot expired: %q", v.String())
			}
			if v := c.do(t, "ASKING"); !v.IsOK() {
				t.Fatalf("ASKING: %s", v.String())
			}
			if v := c.do(t, "GET", "foo"); v.String() != "v1" {
				t.Fatalf("GET with ASKING: %s", v.String())
			}
			// ASKING does not bypass slots that are not importing.
			if v := c.do(t, "ASKING"); !v.IsOK() {
				t.Fatalf("ASKING: %s", v.String())
			}
			// Slot("qux") = 9995: group 1's, but not importing here.
			v = c.do(t, "SET", "qux", "x")
			if !v.IsError() || !strings.HasPrefix(v.String(), "MOVED") {
				t.Fatalf("ASKING admitted a non-importing foreign slot: %q", v.String())
			}
			if n := srv.Metrics().Counter("server.cluster.imported").Value(); n != 2 {
				t.Fatalf("imported counter = %d, want 2", n)
			}
			// SETSLOT validation: cannot import an owned slot or migrate a
			// foreign one.
			if v := c.do(t, "CLUSTER", "SETSLOT", "5061", "IMPORTING", "1"); !v.IsError() {
				t.Fatalf("IMPORTING an owned slot accepted: %s", v.String())
			}
			if v := c.do(t, "CLUSTER", "SETSLOT", "12182", "MIGRATING", "0"); !v.IsError() {
				t.Fatalf("MIGRATING a foreign slot accepted: %s", v.String())
			}
			if v := c.do(t, "CLUSTER", "SETSLOT", "99999", "NODE", "0"); !v.IsError() {
				t.Fatalf("NODE with an invalid slot accepted: %s", v.String())
			}
			// STABLE clears the import mark: ASKING no longer admits.
			if v := c.do(t, "CLUSTER", "SETSLOT", "12182", "STABLE"); !v.IsOK() {
				t.Fatalf("SETSLOT STABLE: %s", v.String())
			}
			if v := c.do(t, "ASKING"); !v.IsOK() {
				t.Fatalf("ASKING: %s", v.String())
			}
			v = c.do(t, "GET", "foo")
			if !v.IsError() || !strings.HasPrefix(v.String(), "MOVED") {
				t.Fatalf("GET after STABLE: %q", v.String())
			}
		})
	}
}

// TestRedirectBehindHeldBarrierKeepsReplyOrder: a command answered on the
// admission plane (a redirect, the ASKING ack) while a barrier holds the
// pipeline must take the reply turn it arrived in, behind the commands
// already parked in the hold queue. With shard cores the SET is in flight
// when DBSIZE arrives, so DBSIZE holds and the commands after it queue.
func TestRedirectBehindHeldBarrierKeepsReplyOrder(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, tc := range []struct {
			name   string
			script []string
			want   string
		}{
			{"redirect", []string{"SET bar v", "DBSIZE", "GET bar", "GET foo"}, "OK :1 v MOVED 12182 other:6379"},
			{"asking", []string{"SET bar v", "DBSIZE", "ASKING", "GET bar"}, "OK :1 OK v"},
		} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, tc.name), func(t *testing.T) {
				w := newWorld(23)
				srv := clusterServer(w, "n0", shards, &ClusterRouting{Self: 0, Map: twoGroupMap(t), Port: 6379})
				c := w.dial(t, srv)
				got := strings.Join(render(c.sendPipe(50*sim.Millisecond, pipeOf(tc.script...))), " ")
				if got != tc.want {
					t.Fatalf("%v replied %q, want %q", tc.script, got, tc.want)
				}
			})
		}
	}
}

// TestClusterRedirectGrammar round-trips the wire grammar the slot clients
// parse.
func TestClusterRedirectGrammar(t *testing.T) {
	slot, addr, port, ok := slots.ParseRedirect(slots.MovedMessage(12182, "other", 6379))
	if !ok || slot != 12182 || addr != "other" || port != 6379 {
		t.Fatalf("parse failed: %d %q %d %t", slot, addr, port, ok)
	}
	if _, _, _, ok := slots.ParseRedirect("ERR something else"); ok {
		t.Fatal("garbage parsed as a redirect")
	}
}
