package bench

import (
	"fmt"

	"skv/internal/cluster"
	"skv/internal/consistency"
	"skv/internal/core"
	"skv/internal/model"
)

// ExtQuorum prices the consistency plane: the identical SKV deployment
// (1 master, 3 slaves, SET-only closed-loop load) measured at each write
// consistency level. Under async the reply fires from the host the moment
// the write executes; under quorum/all the Nic-KV withholds it until W
// slaves report the write's offset, so the client pays the replication
// apply latency — the gate releases column counts the NIC's msgAckRelease
// watermarks that fired the parked replies. The async↔quorum delta is the
// paper-level trade the ack-loss probe motivates: what zero acked-write
// loss under failover costs in throughput and tail latency.
func ExtQuorum() *Experiment {
	e := &Experiment{
		ID:    "ext-quorum",
		Title: "Tunable write consistency (SKV, 3 slaves, SET-only) — extension",
		Cols: []Col{keyCol("level", ""), numCol("kops/s", "%.1f"), numCol("p99 µs", "%.1f"),
			numCol("gate releases", "%.0f"), numCol("err replies", "%.0f")},
		Notes: []string{
			"extension beyond the paper: NIC-enforced quorum acknowledgments — the gate on a write's reply rides the replication request that carries the write, and the Nic-KV releases a watermark once W slaves report the batch's end",
			"async is the legacy reply-on-execute path (zero gates); all waits for every attached slave",
			"rows share the deployment, seed and load; only the consistency level differs",
			"the ack-loss probe (internal/cluster/ackloss.go) demonstrates what the async rows risk: acked writes die with a crashed master, while quorum/all rows survive failover losslessly",
		},
	}
	for _, lv := range []struct {
		label string
		level consistency.Level
		w     int
	}{
		{"async", consistency.Async, 0},
		{"quorum W=1", consistency.Quorum, 1},
		{"quorum W=2", consistency.Quorum, 2},
		{"all", consistency.All, 0},
	} {
		p := model.Default()
		c, r := run(cluster.Config{
			Kind: cluster.KindSKV, Slaves: 3, Clients: 8, Pipeline: 4,
			GetRatio: 0, Seed: 91, Params: &p, SKV: core.DefaultConfig(),
			Consistency: cluster.ConsistencyOpts{Level: lv.level, Quorum: lv.w},
		})
		if r.ErrReplies != 0 {
			panic(fmt.Sprintf("ext-quorum: %d error replies (%s)", r.ErrReplies, lv.label))
		}
		releases := c.Groups[0].NicKV.Metrics().Counter("nickv.gate.releases").Value()
		if lv.level == consistency.Async && releases != 0 {
			panic("ext-quorum: async rows must not gate")
		}
		if lv.level != consistency.Async && releases == 0 {
			panic(fmt.Sprintf("ext-quorum: %s released no gates — the NIC quorum path never engaged", lv.label))
		}
		e.add(lv.label, r.Throughput/1000, r.P99.Micros(), releases, r.ErrReplies)
	}
	return e
}
