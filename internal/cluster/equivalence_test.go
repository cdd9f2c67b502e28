package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"skv/internal/core"
	"skv/internal/obj"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/store"
)

// canonicalObject renders an object's logical content order-independently.
func canonicalObject(o *obj.Object) string {
	switch o.Type {
	case obj.TString:
		return "s:" + string(o.StringBytes())
	case obj.TList:
		var parts []string
		o.List().Each(func(v any) bool {
			parts = append(parts, string(v.([]byte)))
			return true
		})
		return "l:" + strings.Join(parts, ",")
	case obj.THash:
		var parts []string
		o.HashEach(func(f string, v []byte) bool {
			parts = append(parts, f+"="+string(v))
			return true
		})
		sort.Strings(parts)
		return "h:" + strings.Join(parts, ",")
	case obj.TSet:
		var parts []string
		o.SetEach(func(m string) bool {
			parts = append(parts, m)
			return true
		})
		sort.Strings(parts)
		return "S:" + strings.Join(parts, ",")
	case obj.TZSet:
		var parts []string
		for _, e := range o.ZRangeByRank(0, -1) {
			parts = append(parts, fmt.Sprintf("%s:%g", e.Member, e.Score))
		}
		return "z:" + strings.Join(parts, ",")
	}
	return "?"
}

// fingerprint captures the whole live keyspace logically.
func fingerprint(s *store.Store) map[string]string {
	out := map[string]string{}
	s.EachEntry(func(dbi int, key string, o *obj.Object, _ int64) bool {
		out[fmt.Sprintf("%d/%s", dbi, key)] = canonicalObject(o)
		return true
	})
	return out
}

// randomWriter issues a random mixed write workload through a real client
// connection (so everything flows through the replication machinery).
func randomWriter(t *testing.T, c *Cluster, seed int64, n int) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	conn := dialRaw(t, c, fmt.Sprintf("writer%d", seed), c.Groups[0].MasterMachine.Host, core.ClientPort).conn

	key := func() string { return fmt.Sprintf("k%d", rnd.Intn(40)) }
	member := func() string { return fmt.Sprintf("m%d", rnd.Intn(8)) }
	sent := 0
	var sendBatch func()
	sendBatch = func() {
		for i := 0; i < 50 && sent < n; i++ {
			sent++
			var cmd []byte
			switch rnd.Intn(12) {
			case 0:
				cmd = resp.EncodeCommand("SET", key(), fmt.Sprintf("v%d", rnd.Intn(1000)))
			case 1:
				cmd = resp.EncodeCommand("DEL", key())
			case 2:
				cmd = resp.EncodeCommand("INCR", "counter:"+key())
			case 3:
				cmd = resp.EncodeCommand("APPEND", "str:"+key(), "x")
			case 4:
				cmd = resp.EncodeCommand("LPUSH", "list:"+key(), member())
			case 5:
				cmd = resp.EncodeCommand("RPUSH", "list:"+key(), member())
			case 6:
				cmd = resp.EncodeCommand("LPOP", "list:"+key())
			case 7:
				cmd = resp.EncodeCommand("HSET", "hash:"+key(), member(), fmt.Sprint(rnd.Intn(100)))
			case 8:
				cmd = resp.EncodeCommand("HDEL", "hash:"+key(), member())
			case 9:
				cmd = resp.EncodeCommand("SADD", "set:"+key(), member())
			case 10:
				cmd = resp.EncodeCommand("SREM", "set:"+key(), member())
			case 11:
				cmd = resp.EncodeCommand("ZADD", "zset:"+key(), fmt.Sprint(rnd.Intn(50)), member())
			}
			conn.Send(cmd)
		}
		if sent < n {
			c.Eng.After(sim.Millisecond, sendBatch)
		}
	}
	c.Eng.After(0, sendBatch)
	// Run long enough for all commands and replication to settle.
	c.Eng.Run(c.Eng.Now().Add(2 * sim.Second))
}

func TestReplicationLogicalEquivalenceSKV(t *testing.T) {
	runEquivalence(t, KindSKV)
}

func TestReplicationLogicalEquivalenceRDMA(t *testing.T) {
	runEquivalence(t, KindRDMA)
}

func runEquivalence(t *testing.T, kind Kind) {
	cfg := Config{Kind: kind, Slaves: 2, Clients: 0, Seed: 31}
	if kind == KindSKV {
		cfg.SKV = core.DefaultConfig()
	}
	// Clients:0 is coerced to 1 by Build; that client is simply never
	// started.
	c := Build(cfg)
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	randomWriter(t, c, 77, 2000)

	if c.Master.Store().DBSize(0) == 0 {
		t.Fatal("master keyspace empty after random workload")
	}
	for i, s := range c.Slaves {
		requireSameKeyspace(t, fmt.Sprintf("slave%d", i), c.Master.Store(), s.Store())
	}
}
