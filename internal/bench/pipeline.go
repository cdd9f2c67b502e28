package bench

import (
	"skv/internal/cluster"
	"skv/internal/core"
)

// ExtPipeline is an extension experiment beyond the paper: redis-benchmark
// style pipelining (-P). Pipelining amortizes per-round-trip costs, so both
// systems gain throughput — but the master's per-write replication cost is
// NOT amortized, so SKV's relative advantage persists (and grows slightly)
// at depth.
func ExtPipeline() *Experiment {
	e := &Experiment{
		ID:    "ext-pipeline",
		Title: "SET throughput vs pipeline depth (8 clients, 3 slaves) — extension",
		Cols: []Col{keyCol("pipeline", "%.0f"), numCol("rdma-redis kops/s", "%.1f"), numCol("skv kops/s", "%.1f"),
			numCol("gain", "%+.1f%%"), numCol("rdma p99 µs", "%.1f"), numCol("skv p99 µs", "%.1f")},
		Notes: []string{
			"extension beyond the paper: the offload win survives pipelining because replication cost is per write, not per round trip",
		},
	}
	for _, depth := range []int{1, 4, 16, 64} {
		_, rr := run(cluster.Config{Kind: cluster.KindRDMA, Slaves: 3, Clients: 8, Seed: 63, Pipeline: depth})
		_, rs := run(cluster.Config{Kind: cluster.KindSKV, Slaves: 3, Clients: 8, Seed: 63, Pipeline: depth, SKV: core.DefaultConfig()})
		e.add(depth, rr.Throughput/1000, rs.Throughput/1000, (rs.Throughput/rr.Throughput-1)*100,
			rr.P99.Micros(), rs.P99.Micros())
	}
	return e
}
