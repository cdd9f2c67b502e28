package bench

import (
	"fmt"
	"strings"

	"skv/internal/cluster"
	"skv/internal/core"
	"skv/internal/model"
	"skv/internal/sim"
)

// ExtCluster is the multi-master scale-out experiment: aggregate SET
// throughput as the deployment grows from one SKV replication group to
// two and four, each group a full master + slave + Nic-KV offload unit
// owning an even share of the 16384 hash slots. Every row uses the SAME
// per-master tuning (the best single-master configuration from
// ext-shards: 4 keyspace shards, 2 routing listeners, batched
// replication) and the SAME client count — the slot-aware clients keep
// one Pipeline-deep window per group, so the offered load per master is
// constant as groups are added and the sweep isolates scale-out, not
// extra clients. The masters=1 row is a single group: same builder, no
// slot plane, no admission check.
func ExtCluster() *Experiment {
	e := &Experiment{
		ID:    "ext-cluster",
		Title: "Multi-master hash-slot scale-out (SET, 8 clients ×8 deep, 1 slave/master) — extension",
		Cols: []Col{keyCol("masters", "%.0f"), numCol("agg kops/s", "%.1f"), numCol("scale", "%.2fx"),
			numCol("p99 µs", "%.1f"), {Name: "group kops/s"}, numCol("moved", "%.0f"), numCol("err replies", "%.0f")},
		Notes: []string{
			"extension beyond the paper: N full SKV units behind a 16384-slot CRC16 hash-slot map (Redis Cluster semantics: hashtags, MOVED, CROSSSLOT)",
			"same per-master tuning in every row (4 shards, 2 listeners, batched replication) and the same 8 clients — per-group pipeline windows keep per-master offered load constant, so the column isolates scale-out",
			"moved: MOVED redirects absorbed by the clients while warming their slot maps from the deliberately stale bootstrap (all slots at the seed node)",
			"masters=1 is a single replication group: it has no slot plane, so moved is '-'",
		},
	}
	base := -1.0
	for _, masters := range []int{1, 2, 4} {
		p := model.Default()
		p.HostShards = 4
		p.RouteListeners = 2
		p.ReplBatchMaxCmds = 8
		p.ReplBatchMaxDelay = 5 * sim.Microsecond
		cfg := cluster.Config{Kind: cluster.KindSKV, Clients: 8, Pipeline: 8,
			Seed: 67, Params: &p, SKV: core.DefaultConfig()}
		if masters == 1 {
			cfg.Slaves = 1
		} else {
			cfg.Cluster = cluster.ClusterOpts{Masters: masters, SlavesPerMaster: 1}
		}
		_, r := run(cfg)
		if r.ErrReplies != 0 {
			panic(fmt.Sprintf("ext-cluster: %d error replies at %d masters", r.ErrReplies, masters))
		}
		var groupCol, moved any = "-", "-"
		if masters > 1 {
			perGroup := make([]string, len(r.GroupOps))
			for gi, ops := range r.GroupOps {
				perGroup[gi] = fmt.Sprintf("%.0f", float64(ops)/measure.Seconds()/1000)
			}
			groupCol, moved = strings.Join(perGroup, "/"), r.Moved
		}
		if base < 0 {
			base = r.Throughput
		}
		e.add(masters, r.Throughput/1000, r.Throughput/base, r.P99.Micros(), groupCol, moved, r.ErrReplies)
	}
	return e
}
