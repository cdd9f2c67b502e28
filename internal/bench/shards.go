package bench

import (
	"fmt"
	"strings"

	"skv/internal/cluster"
	"skv/internal/core"
	"skv/internal/model"
	"skv/internal/rconn"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/transport"
)

// ExtShards is an extension experiment beyond the paper: the Host-KV
// keyspace sharded over multiple cores behind the deterministic dispatch
// plane, and the dispatch/parse stage itself sharded across routing
// listeners. Listeners=1 rows are the dispatch-owned pipeline: the dispatch
// core parses, routes, merges, and propagates — and saturates at ~575
// kops/s regardless of shard count. Listeners≥2 rows move transport
// receive, parse, routing, and reply emission onto per-listener cores;
// the dispatch core keeps only the merge/order stage (with replication
// batching amortizing the per-write offload doorbell), so the bottleneck
// finally leaves the front end. Replication, WAIT, PSYNC and the Nic-KV
// offload see one serialized stream in every row.
func ExtShards() *Experiment {
	e := &Experiment{
		ID:    "ext-shards",
		Title: "Host-KV keyspace + dispatch/parse sharding (SET, 8 clients ×8 deep, 3 slaves) — extension",
		Cols: []Col{keyCol("shards", "%.0f"), keyCol("listeners", "%.0f"), numCol("skv kops/s", "%.1f"),
			numCol("p99 µs", "%.1f"), numCol("dispatch util", "%.0f%%"), {Name: "route core utils"},
			{Name: "shard core utils"}, numCol("wait0 rtt µs", "%.1f"), numCol("wait barriers", "%.0f")},
		Notes: []string{
			"extension beyond the paper: one pipeline at every row — at shards=1 the one shard shares the dispatch core, so the route/merge hop crosses no core and costs nothing (the paper's single event loop, `-` in both util columns); at listeners=1 the dispatch core owns every connection",
			"replication, WAIT and the Nic-KV offload see one serialized stream at every shard and listener count",
			"listeners≥2 rows batch replication flushes (8 cmds or 5µs, whichever first) — the thin merge stage amortizes the offload doorbell behind a coalescing timer; listeners=1 rows flush per write",
			"wait0 rtt: round-trip of WAIT 0 0 probed under full load — per-caller WAIT never quiesces the pipeline, so the barrier count stays 0 in every row",
		},
	}
	rows := []struct{ shards, listeners int }{
		{1, 1}, {2, 1}, {4, 1}, {8, 1}, {4, 2}, {4, 4}, {8, 2}, {8, 4},
	}
	for _, row := range rows {
		p := model.Default()
		p.HostShards = row.shards
		p.RouteListeners = row.listeners
		if row.listeners > 1 {
			// The routed rows' merge stage is deliberately thin: batch the
			// replication flush so the offload doorbell amortizes across
			// writes instead of re-bottlenecking the dispatch core. The
			// underloaded merge core quiesces between every two merges, so
			// partial batches need the coalescing timer, not the quiesce
			// flush, to accumulate.
			p.ReplBatchMaxCmds = 8
			p.ReplBatchMaxDelay = 5 * sim.Microsecond
		}
		c, r := run(cluster.Config{Kind: cluster.KindSKV, Slaves: 3, Clients: 8,
			Pipeline: 8, Seed: 67, Params: &p, SKV: core.DefaultConfig()})
		waitRTT, waitBarriers := waitProbe(c, 5)
		e.add(row.shards, row.listeners, r.Throughput/1000, r.P99.Micros(), r.MasterUtil*100,
			utilCol(r.RouteUtils), utilCol(r.ShardUtils), waitRTT.Micros(), waitBarriers)
	}
	return e
}

// utilCol renders a per-core utilization slice as "93%/94%/..." ("-" when
// the plane is off).
func utilCol(utils []float64) string {
	if len(utils) == 0 {
		return "-"
	}
	cols := make([]string, len(utils))
	for i, u := range utils {
		cols[i] = fmt.Sprintf("%.0f%%", u*100)
	}
	return strings.Join(cols, "/")
}

// waitProbe measures WAIT's dispatch-pipeline cost while the SET load is
// still running: a fresh client issues `WAIT 0 0` (need=0 resolves
// immediately, so the round-trip isolates queueing and any pipeline fence,
// not replica ack latency) `rounds` times and the probe reports the mean
// round-trip plus how many global barriers the probes triggered — zero
// under per-caller WAIT.
func waitProbe(c *cluster.Cluster, rounds int) (sim.Duration, uint64) {
	eng, g := c.Eng, c.Groups[0]
	m := c.Net.NewMachine("wait-probe", false)
	proc := sim.NewProc(eng, sim.NewCore(eng, "wait-probe-core", 1.0), c.Params.ClientWakeup)
	stack := rconn.New(c.Net, m.Host, proc)
	before := g.Master.Metrics().Counter("server.shard.barriers").Value()
	var total sim.Duration
	done := 0
	var r resp.Reader
	var sentAt sim.Time
	stack.Dial(g.MasterMachine.Host, core.ClientPort, func(conn transport.Conn, err error) {
		if err != nil {
			return
		}
		send := func() {
			sentAt = eng.Now()
			conn.Send(resp.EncodeCommand("WAIT", "0", "0"))
		}
		conn.SetHandler(func(data []byte) {
			r.Feed(data)
			for {
				if _, ok, _ := r.ReadValue(); !ok {
					break
				}
				total += eng.Now().Sub(sentAt)
				if done++; done < rounds {
					send()
				}
			}
		})
		send()
	})
	eng.Run(eng.Now().Add(500 * sim.Millisecond))
	barriers := g.Master.Metrics().Counter("server.shard.barriers").Value() - before
	if done == 0 {
		return 0, barriers
	}
	return total / sim.Duration(done), barriers
}
