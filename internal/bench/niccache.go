package bench

import (
	"fmt"

	"skv/internal/cluster"
	"skv/internal/core"
	"skv/internal/model"
)

// AblateNICCache measures the design §IV-A rejects: storing data on the
// SmartNIC and serving reads from its ARM cores (as KV-Direct and Xenic do
// on their very different hardware). The paper keeps all key-value pairs
// in host memory, predicting that NIC-served reads would be slower on an
// off-path SmartNIC due to the weaker processors and the extra NIC-switch
// hop; this experiment quantifies that.
//
// The shards dimension mirrors the Host-KV shard layout on the NIC: with
// HostShards > 1 the replica is split across that many ARM shard cores
// (reads route by key hash, the main ARM core dispatches and merges), so
// the rejected design is measured at its best, not just single-core.
func AblateNICCache() *Experiment {
	e := &Experiment{
		ID:    "ablate-niccache",
		Title: "GET served from host (SKV's choice, §IV-A) vs from SmartNIC replica",
		Cols: []Col{keyCol("shards", "%.0f"), keyCol("clients", "%.0f"),
			numCol("host tput", "%.1f"), numCol("nic tput", "%.1f"),
			numCol("host avg µs", "%.1f"), numCol("nic avg µs", "%.1f"),
			numCol("host p99 µs", "%.1f"), numCol("nic p99 µs", "%.1f")},
		Notes: []string{
			"paper §IV-A: \"the latency of accessing data will increase significantly due to the weaker processors and relatively larger RDMA latency of the off-path SmartNIC\" — so SKV stores all key-value pairs on the host",
			"shards > 1 splits both the host keyspace and the NIC shadow replica across that many cores (the replica mirrors the host shard layout)",
		},
	}
	type point struct{ shards, clients int }
	points := []point{{1, 1}, {1, 4}, {1, 8}, {2, 8}, {4, 8}}
	for _, pt := range points {
		host := runNICCacheVariant(pt.clients, pt.shards, false)
		nic := runNICCacheVariant(pt.clients, pt.shards, true)
		e.add(pt.shards, pt.clients,
			host.Throughput/1000, nic.Throughput/1000,
			host.Avg.Micros(), nic.Avg.Micros(),
			host.P99.Micros(), nic.P99.Micros())
	}
	return e
}

func runNICCacheVariant(clients, shards int, fromNIC bool) cluster.Result {
	mode := cluster.NicReadsOff
	if fromNIC {
		mode = cluster.NicReadsClients
	}
	p := model.Default()
	p.HostShards = shards
	cfg := cluster.Config{
		Kind: cluster.KindSKV, Slaves: 0, Clients: clients, Seed: 61,
		GetRatio: 1.0, Params: &p, SKV: core.DefaultConfig(), NicReads: mode,
	}
	// Warm both stores with the full keyspace so GETs hit. cfg.ValueSize is
	// unset, so the preloaded values are empty: the figure was taken that way.
	_, r := run(cfg, func(c *cluster.Cluster) { preload(c.Groups[0], cfg.ValueSize, fromNIC) })
	return r
}

// preload SETs the default 10 000-key keyspace into a group's host store and,
// for NIC-served reads, its shadow replica.
func preload(g *cluster.Group, valueSize int, replica bool) {
	value := make([]byte, valueSize)
	for i := range value {
		value[i] = 'a' + byte(i%26)
	}
	for i := 0; i < 10_000; i++ {
		key := fmt.Sprintf("key:%010d", i)
		g.Master.Store().Exec(0, [][]byte{[]byte("SET"), []byte(key), value})
		if replica {
			g.NicKV.PreloadReplica(key, value)
		}
	}
}
