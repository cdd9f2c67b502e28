package bench

import (
	"fmt"

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
		Header: []string{"pipeline", "rdma-redis kops/s", "skv kops/s", "gain",
			"rdma p99 µs", "skv p99 µs"},
		Notes: []string{
			"extension beyond the paper: the offload win survives pipelining because replication cost is per write, not per round trip",
		},
	}
	for _, depth := range []int{1, 4, 16, 64} {
		_, rr := run(cluster.Config{Kind: cluster.KindRDMA, Slaves: 3, Clients: 8, Seed: 63, Pipeline: depth})
		_, rs := run(cluster.Config{Kind: cluster.KindSKV, Slaves: 3, Clients: 8, Seed: 63, Pipeline: depth, SKV: core.DefaultConfig()})
		e.Rows = append(e.Rows, []string{
			fmt.Sprint(depth),
			kops(rr.Throughput), kops(rs.Throughput),
			fmt.Sprintf("%+.1f%%", (rs.Throughput/rr.Throughput-1)*100),
			f1(rr.P99.Micros()), f1(rs.P99.Micros()),
		})
		e.metric(fmt.Sprintf("gain_pct_depth%d", depth), (rs.Throughput/rr.Throughput-1)*100)
	}
	return e
}
