package cluster

import (
	"fmt"
	"testing"

	"skv/internal/core"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/store"
)

// requireSameKeyspace fails the test unless a replica (a slave's store, or
// the NIC shadow replica) holds logically the same keyspace as the master.
func requireSameKeyspace(t *testing.T, label string, master, replica *store.Store) {
	t.Helper()
	want := fingerprint(master)
	got := fingerprint(replica)
	if len(got) != len(want) {
		t.Fatalf("%s: replica has %d keys, master %d", label, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: replica divergence at %s: %q vs master %q", label, k, got[k], v)
		}
	}
}

// TestNicReplicaKeyspaceEqualsMasterAcrossShards drives the mixed write
// workload through the master and requires the NIC shadow replica — fed
// only from the replication stream it relays — to end logically identical
// to the master keyspace at 1, 2 and 4 host shards (the replica mirrors
// the host shard layout on the ARM cores).
func TestNicReplicaKeyspaceEqualsMasterAcrossShards(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 0, Seed: 31,
			Params: shardParams(shards), SKV: core.DefaultConfig(),
			NicReads: NicReadsServe})
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatalf("shards=%d: sync failed", shards)
		}
		randomWriter(t, c, 77, 2000)
		c.Eng.Run(c.Eng.Now().Add(200 * sim.Millisecond))
		g := c.Groups[0]
		if g.NicKV.ReplicaStore().DBSize(0) == 0 {
			t.Fatalf("shards=%d: NIC replica empty after mixed workload", shards)
		}
		requireSameKeyspace(t, fmt.Sprintf("shards=%d", shards), g.Master.Store(), g.NicKV.ReplicaStore())
		if gaps := g.NicKV.Metrics().Counter("nickv.replica.gaps").Value(); gaps != 0 {
			t.Fatalf("shards=%d: replica saw %d stream gaps", shards, gaps)
		}
	}
}

// TestNicReplicaKeyspaceEqualsMasterRouted: the routing plane must not
// perturb the replication stream the NIC shadow replica is fed from — the
// merge stage still owns the one serialized order. Same oracle as above,
// with 2 and 4 routing listeners in front of 4 shards.
func TestNicReplicaKeyspaceEqualsMasterRouted(t *testing.T) {
	for _, listeners := range []int{2, 4} {
		c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 0, Seed: 31,
			Params: routeParams(4, listeners), SKV: core.DefaultConfig(),
			NicReads: NicReadsServe})
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatalf("listeners=%d: sync failed", listeners)
		}
		randomWriter(t, c, 77, 2000)
		c.Eng.Run(c.Eng.Now().Add(200 * sim.Millisecond))
		g := c.Groups[0]
		if g.NicKV.ReplicaStore().DBSize(0) == 0 {
			t.Fatalf("listeners=%d: NIC replica empty after mixed workload", listeners)
		}
		requireSameKeyspace(t, fmt.Sprintf("listeners=%d", listeners), g.Master.Store(), g.NicKV.ReplicaStore())
		if gaps := g.NicKV.Metrics().Counter("nickv.replica.gaps").Value(); gaps != 0 {
			t.Fatalf("listeners=%d: replica saw %d stream gaps", listeners, gaps)
		}
	}
}

// TestNicReplicaChaosKeyspaceEquality re-runs every chaos scenario with the
// NIC shadow replica enabled at 1, 2 and 4 host shards: after the cluster
// converges, the replica must match the master keyspace — failovers,
// partitions and reconnect replays (trimmed, not double-applied) included.
func TestNicReplicaChaosKeyspaceEquality(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for _, s := range ChaosScenarios() {
			s.Config.NicReads = NicReadsServe
			s.Config.Params.HostShards = shards
			t.Run(fmt.Sprintf("%s/shards%d", s.Name, shards), func(t *testing.T) {
				c, h, err := RunScenario(s)
				if err != nil {
					t.Fatalf("convergence failed:\n%v\ntrace:\n%s", err, h.TraceString())
				}
				requireSameKeyspace(t, s.Name, c.Master.Store(), c.Groups[0].NicKV.ReplicaStore())
			})
		}
	}
}

// nicDo sends commands to an endpoint over a fresh connection and returns
// the replies, one per command, in order.
func nicDo(t *testing.T, c *Cluster, cmds [][]byte) []resp.Value {
	t.Helper()
	rc := dialRaw(t, c, "nic-probe", c.Groups[0].MasterMachine.NIC, core.ClientPort)
	for _, cmd := range cmds {
		rc.conn.Send(cmd)
	}
	c.Eng.RunFor(100 * sim.Millisecond)
	return rc.vals
}

// TestNicReplicaHonorsDBIndex is the satellite regression: the shadow
// replica used to flatten every numbered database into db 0 because the
// stream applier discarded the SELECT context. Writes to db 1 must land in
// the replica's db 1, and a NIC client must be able to SELECT into it.
func TestNicReplicaHonorsDBIndex(t *testing.T) {
	for _, shards := range []int{1, 4} {
		c := Build(Config{Kind: KindSKV, Slaves: 1, Clients: 0, Seed: 35,
			Params: shardParams(shards), SKV: core.DefaultConfig(),
			NicReads: NicReadsServe})
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatalf("shards=%d: sync failed", shards)
		}

		// Write through the master into db 0 and db 1 over a real client
		// connection so the writes flow through the replication machinery.
		writer := dialRaw(t, c, "writer", c.Groups[0].MasterMachine.Host, core.ClientPort)
		writer.conn.Send(resp.EncodeCommand("SET", "k0", "zero"))
		writer.conn.Send(resp.EncodeCommand("SELECT", "1"))
		writer.conn.Send(resp.EncodeCommand("SET", "k1", "one"))
		c.Eng.RunFor(200 * sim.Millisecond)

		rs := c.Groups[0].NicKV.ReplicaStore()
		if got := rs.DBSize(0); got != 1 {
			t.Fatalf("shards=%d: replica db0 has %d keys, want 1", shards, got)
		}
		if got := rs.DBSize(1); got != 1 {
			t.Fatalf("shards=%d: replica db1 has %d keys, want 1 (SELECT context lost)", shards, got)
		}

		// A NIC client can SELECT into db 1 and read the key from the ARM
		// cores.
		replies := nicDo(t, c, [][]byte{
			resp.EncodeCommand("GET", "k0"),
			resp.EncodeCommand("SELECT", "1"),
			resp.EncodeCommand("GET", "k1"),
			resp.EncodeCommand("SET", "nope", "x"),
		})
		if len(replies) != 4 {
			t.Fatalf("shards=%d: %d replies, want 4", shards, len(replies))
		}
		if replies[0].String() != "zero" {
			t.Fatalf("shards=%d: NIC GET k0 = %s", shards, replies[0].String())
		}
		if !replies[1].IsOK() {
			t.Fatalf("shards=%d: NIC SELECT 1 = %s", shards, replies[1].String())
		}
		if replies[2].String() != "one" {
			t.Fatalf("shards=%d: NIC GET k1 (db1) = %s", shards, replies[2].String())
		}
		if replies[3].Type != resp.TypeError {
			t.Fatalf("shards=%d: NIC SET accepted: %s", shards, replies[3].String())
		}
	}
}

// TestBuildRejectsInconsistentNicConfig pins the unified-knob contract:
// NicReads is the one authoritative setting, and the combinations Build
// used to half-accept now fail validation.
func TestBuildRejectsInconsistentNicConfig(t *testing.T) {
	if err := (Config{Kind: KindTCP, NicReads: NicReadsClients}).Validate(); err == nil {
		t.Fatal("NicReads on a NIC-less deployment passed validation")
	}
	if err := (Config{Kind: KindRDMA, NicReads: NicReadsServe}).Validate(); err == nil {
		t.Fatal("NicReads on KindRDMA passed validation")
	}
	skv := core.DefaultConfig()
	skv.ServeReadsFromNIC = true
	if err := (Config{Kind: KindSKV, SKV: skv}).Validate(); err == nil {
		t.Fatal("directly-set SKV.ServeReadsFromNIC without NicReads passed validation")
	}
	if err := (Config{Kind: KindSKV, NicReads: NicReadsServe}).Validate(); err != nil {
		t.Fatalf("valid SKV NicReads config rejected: %v", err)
	}
	if err := (Config{Kind: KindTCP}).Validate(); err != nil {
		t.Fatalf("valid baseline config rejected: %v", err)
	}
}
