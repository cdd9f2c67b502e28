package bench

import (
	"skv/internal/cluster"
	"skv/internal/core"
	"skv/internal/model"
)

// ExtBatch is an extension experiment beyond the paper: replication-stream
// batching (ReplBatchMaxCmds). Writes arriving within one event-loop busy
// period coalesce into a single batch, so the master posts one replication
// work request for many writes instead of one each. The wrs/write column is
// hostkv.repl_reqs / Server.WritesPropagated — 1.0 unbatched, dropping
// toward 1/batch as the budget grows; the equivalent rdma-redis ratio is
// the repl.flush.* batches per write (each batch still costs one send per
// slave).
func ExtBatch() *Experiment {
	e := &Experiment{
		ID:    "ext-batch",
		Title: "Replication batching (SET, 8 clients ×8 deep, 3 slaves) — extension",
		Cols: []Col{keyCol("batch", "%.0f"), numCol("skv kops/s", "%.1f"), numCol("skv p99 µs", "%.1f"),
			numCol("skv wrs/write", "%.3f"), numCol("rdma kops/s", "%.1f"), numCol("rdma batches/write", "%.3f")},
		Notes: []string{
			"extension beyond the paper: batch=1 flushes every write as its own one-command request; larger budgets amortize the per-write WR post (SKV) and the per-write slave feed (rdma-redis)",
		},
	}
	for _, batch := range []int{1, 4, 16, 64} {
		p := model.Default()
		p.ReplBatchMaxCmds = batch
		cfg := cluster.Config{Kind: cluster.KindSKV, Slaves: 3, Clients: 8,
			Pipeline: 8, Seed: 64, Params: &p, SKV: core.DefaultConfig()}
		c, rs := run(cfg)
		wrsPerWrite := 1.0
		if g := c.Groups[0]; g.Master.WritesPropagated > 0 {
			wrsPerWrite = float64(g.HostKV.ReplReqsSent.Value()) / float64(g.Master.WritesPropagated)
		}

		pr := model.Default()
		pr.ReplBatchMaxCmds = batch
		cr, rr := run(cluster.Config{Kind: cluster.KindRDMA, Slaves: 3,
			Clients: 8, Pipeline: 8, Seed: 64, Params: &pr})
		batchesPerWrite := 1.0
		if m := cr.Groups[0].Master; m.WritesPropagated > 0 {
			batchesPerWrite = float64(m.ReplStream().BatchesFlushed()) / float64(m.WritesPropagated)
		}

		e.add(batch, rs.Throughput/1000, rs.P99.Micros(), wrsPerWrite, rr.Throughput/1000, batchesPerWrite)
	}
	return e
}
