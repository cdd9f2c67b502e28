package bench

import (
	"skv/internal/cluster"
	"skv/internal/core"
	"skv/internal/model"
	"skv/internal/sim"
)

// AblateSlaves sweeps the slave count: the mechanism behind Fig 11 is that
// the RDMA-Redis master's per-write cost grows linearly with the slave
// count (one output-buffer feed + one work request each) while SKV's is
// constant (one replication request to the NIC).
func AblateSlaves() *Experiment {
	e := &Experiment{
		ID:    "ablate-slaves",
		Title: "SET throughput vs slave count (8 clients): offload win grows with fan-out",
		Cols: []Col{keyCol("slaves", "%.0f"), numCol("rdma-redis kops/s", "%.1f"), numCol("skv kops/s", "%.1f"),
			numCol("gain", "%+.1f%%"), numCol("skv NIC util", "%.0f%%")},
	}
	for _, slaves := range []int{1, 2, 3, 4, 6, 8} {
		_, rr := run(cluster.Config{Kind: cluster.KindRDMA, Slaves: slaves, Clients: 8, Seed: 51})
		_, rs := run(cluster.Config{Kind: cluster.KindSKV, Slaves: slaves, Clients: 8, Seed: 51, SKV: core.DefaultConfig()})
		e.add(slaves, rr.Throughput/1000, rs.Throughput/1000, (rs.Throughput/rr.Throughput-1)*100, rs.NicUtil*100)
	}
	e.Notes = append(e.Notes,
		"challenge 2 (§II-C): past the point where the single ARM core saturates, SKV's client throughput keeps its lead but replication lags — see ablate-threads")
	return e
}

// AblateNICSpeed sweeps the ARM-core speed: why "simply putting everything
// on the SmartNIC" fails, and how weak the NIC may get before the offload
// stops keeping up.
func AblateNICSpeed() *Experiment {
	e := &Experiment{
		ID:    "ablate-nicspeed",
		Title: "SKV sensitivity to SmartNIC core speed (SET, 8 clients, 3 slaves)",
		Cols: []Col{keyCol("NIC core speed", "%.2f×host"), numCol("skv kops/s", "%.1f"),
			numCol("NIC util", "%.0f%%"), numCol("repl lag bytes", "%.0f")},
	}
	for _, speed := range []float64{0.2, 0.35, 0.6, 0.8, 1.0} {
		p := model.Default()
		p.NICCoreSpeed = speed
		c, r := run(cluster.Config{Kind: cluster.KindSKV, Slaves: 3, Clients: 8, Seed: 52, Params: &p, SKV: core.DefaultConfig()})
		e.add(speed, r.Throughput/1000, r.NicUtil*100, replicationLag(c))
	}
	e.Notes = append(e.Notes,
		"client-visible throughput is insensitive (replication is asynchronous); a too-slow NIC shows up as replication lag")
	return e
}

// replicationLag reports the master-offset minus the slowest slave offset
// at the end of a run.
func replicationLag(c *cluster.Cluster) int64 {
	minOff := int64(-1)
	for _, a := range c.Groups[0].SlaveAgents {
		if minOff < 0 || a.Offset() < minOff {
			minOff = a.Offset()
		}
	}
	if minOff < 0 {
		return 0
	}
	lag := c.Groups[0].Master.ReplOffset() - minOff
	if lag < 0 {
		lag = 0
	}
	return lag
}

// AblateThreads sweeps thread-num (§III-C): multi-threaded replication on
// the NIC accelerates the background fan-out (lower lag) but cannot improve
// client latency or throughput — the paper's stated reason for defaulting
// to single-threaded mode.
func AblateThreads() *Experiment {
	e := &Experiment{
		ID:    "ablate-threads",
		Title: "Nic-KV thread-num (SET, 8 clients, 8 slaves)",
		Cols: []Col{keyCol("thread-num", "%.0f"), numCol("client kops/s", "%.1f"),
			numCol("client p99 µs", "%.1f"), numCol("repl lag bytes", "%.0f")},
	}
	for _, threads := range []int{1, 2, 4, 8} {
		cfg := core.DefaultConfig()
		cfg.ThreadNum = threads
		c, r := run(cluster.Config{Kind: cluster.KindSKV, Slaves: 8, Clients: 8, Seed: 53, SKV: cfg})
		e.add(threads, r.Throughput/1000, r.P99.Micros(), replicationLag(c))
	}
	e.Notes = append(e.Notes,
		"paper §III-C: \"the speedup of replication cannot improve the latency and throughput of the execution of commands on the master node\"")
	return e
}

// experiments is every experiment in paper order: the one list All, ByID
// and IDs read.
var experiments = []struct {
	id  string
	run func() *Experiment
}{
	{"fig3", Fig3}, {"fig7", Fig7}, {"fig10a", Fig10a}, {"fig10b", Fig10b},
	{"fig11", Fig11}, {"fig12", Fig12}, {"fig13", Fig13}, {"fig14", Fig14},
	{"ablate-slaves", AblateSlaves}, {"ablate-nicspeed", AblateNICSpeed},
	{"ablate-threads", AblateThreads}, {"ablate-niccache", AblateNICCache},
	{"ablate-cpu", AblateCPU}, {"ext-pipeline", ExtPipeline}, {"ext-batch", ExtBatch},
	{"ext-failover", ExtFailover}, {"ext-shards", ExtShards}, {"ext-cluster", ExtCluster},
	{"ext-reshard", ExtReshard}, {"ext-quorum", ExtQuorum}, {"ext-tracking", ExtTracking},
}

// All runs every experiment in paper order.
func All() []*Experiment {
	out := make([]*Experiment, 0, len(experiments))
	for _, x := range experiments {
		out = append(out, x.run())
	}
	return out
}

// ByID runs a single experiment by identifier, or nil if unknown.
func ByID(id string) *Experiment {
	for _, x := range experiments {
		if x.id == id {
			return x.run()
		}
	}
	return nil
}

// IDs lists the available experiment identifiers.
func IDs() []string {
	ids := make([]string, 0, len(experiments))
	for _, x := range experiments {
		ids = append(ids, x.id)
	}
	return ids
}

// AblateCPU measures the design goal "low CPU consumption" directly: host
// CPU microseconds consumed per client operation on the master, for each
// system, with 3 slaves under SET load. SKV's saving is precisely the
// per-slave feed + work-request posting that moved to the SmartNIC.
func AblateCPU() *Experiment {
	e := &Experiment{
		ID:    "ablate-cpu",
		Title: "Master host CPU per operation (SET, 8 clients, 3 slaves)",
		Cols: []Col{keyCol("system", ""), numCol("tput kops/s", "%.1f"),
			numCol("master µs/op", "%.2f"), numCol("NIC µs/op", "%.2f")},
		Notes: []string{
			"design goal 2 (§III-A): \"We hope to use single thread on host to reduce the number of occupied cores while maintaining high performance\"",
		},
	}
	for _, kind := range []cluster.Kind{cluster.KindRDMA, cluster.KindSKV} {
		cfg := cluster.Config{Kind: kind, Slaves: 3, Clients: 8, Seed: 62}
		if kind == cluster.KindSKV {
			cfg.SKV = core.DefaultConfig()
		}
		// Host and NIC busy time per command, from the end of the sync on.
		var busyBefore, nicBefore sim.Duration
		var opsBefore uint64
		c, r := run(cfg, func(c *cluster.Cluster) {
			g := c.Groups[0]
			busyBefore, opsBefore = g.Master.Proc().Core.BusyTime(), g.Master.CommandsProcessed()
			if g.NicKV != nil {
				nicBefore = g.NicKV.Proc().Core.BusyTime()
			}
		})
		g := c.Groups[0]
		ops := float64(g.Master.CommandsProcessed() - opsBefore)
		hostPerOp := float64(g.Master.Proc().Core.BusyTime()-busyBefore) / ops / 1000
		nicPerOp := 0.0
		if g.NicKV != nil {
			nicPerOp = float64(g.NicKV.Proc().Core.BusyTime()-nicBefore) / ops / 1000
		}
		e.add(kind.String(), r.Throughput/1000, hostPerOp, nicPerOp)
	}
	return e
}
