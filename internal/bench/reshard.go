package bench

import (
	"fmt"

	"skv/internal/cluster"
	"skv/internal/core"
	"skv/internal/model"
	"skv/internal/sim"
)

// reshardSlots is the migrated range: the low 512 slots of group 0's half
// (1/32 of the keyspace under the even 2-way split).
const reshardSlots = 511

// ExtReshard measures live slot migration under load: a 2-group deployment
// serves a mixed GET/SET workload while a SlotMigrator reshards slots
// 0..511 from group 0 to group 1 through the CLUSTER protocol (SETSLOT
// IMPORTING/MIGRATING, per-key DUMP / ASKING+RESTORE IFEQ / MIGRATEDEL,
// final NODE flip). The steady row is the identical deployment with no
// migration — the delta is the migration's whole client-visible cost, and
// the reshard row additionally reports what the mover did: keys moved, CAS
// retries (a client write raced the transfer and won), ASK redirects the
// clients absorbed, and the wall-clock (virtual) migration duration.
func ExtReshard() *Experiment {
	e := &Experiment{
		ID:    "ext-reshard",
		Title: "Live slot migration under load (2 masters, 50% GET, slots 0-511 rehomed) — extension",
		Cols: []Col{keyCol("phase", ""), numCol("kops/s", "%.1f"), numCol("p99 µs", "%.1f"),
			numCol("keys moved", "%.0f"), numCol("cas retries", "%.0f"), numCol("asks", "%.0f"),
			numCol("migration ms", "%.1f"), numCol("err replies", "%.0f")},
		Notes: []string{
			"extension beyond the paper: Redis-Cluster-style live resharding (ASK/ASKING window, per-key optimistic CAS transfer, atomic SETSLOT NODE flip) on the multi-master SKV deployment",
			"steady and reshard rows run the identical deployment and seed; only the mover differs, so the column deltas isolate the migration's cost",
			"cas retries: MIGRATEDEL found the source value changed since DUMP — the racing client write survived and the mover re-dumped",
			"asks: one-shot ASK redirects absorbed by slot-aware clients without refreshing their maps (MOVED, by contrast, refreshes)",
		},
	}
	for _, migrate := range []bool{false, true} {
		p := model.Default()
		p.HostShards = 4
		p.RouteListeners = 2
		p.ReplBatchMaxCmds = 8
		p.ReplBatchMaxDelay = 5 * sim.Microsecond
		var m *cluster.SlotMigrator
		var started sim.Time
		var doneIn sim.Duration
		done := false
		c, r := run(cluster.Config{Kind: cluster.KindSKV,
			Cluster: cluster.ClusterOpts{Masters: 2, SlavesPerMaster: 1}, Clients: 8, Pipeline: 8,
			GetRatio: 0.5, Seed: 73, Params: &p, SKV: core.DefaultConfig()},
			func(c *cluster.Cluster) {
				c.StartClients()
				if !migrate {
					return
				}
				m = cluster.NewSlotMigrator(c, nil)
				c.Eng.At(c.Eng.Now().Add(warmup), func() {
					started = c.Eng.Now()
					m.Reshard(0, reshardSlots, 1, func() {
						done = true
						doneIn = c.Eng.Now().Sub(started)
					})
				})
			})
		if r.ErrReplies != 0 {
			panic(fmt.Sprintf("ext-reshard: %d error replies (migrate=%t)", r.ErrReplies, migrate))
		}
		if !migrate {
			e.add("steady", r.Throughput/1000, r.P99.Micros(), "-", "-", "-", "-", r.ErrReplies)
			continue
		}
		// Let a migration that outlives the measure window finish, so the
		// moved/duration columns describe the complete reshard.
		deadline := c.Eng.Now().Add(2 * sim.Second)
		for !done && c.Eng.Now() < deadline {
			c.Eng.Run(c.Eng.Now().Add(5 * sim.Millisecond))
		}
		if !done {
			panic("ext-reshard: migration did not finish within 2s of the measure window")
		}
		var asked uint64
		for _, cl := range c.Clients {
			asked += cl.Stats().Asked
		}
		e.add("reshard", r.Throughput/1000, r.P99.Micros(), m.KeysMoved, m.KeyRetries, asked,
			float64(doneIn)/float64(sim.Millisecond), r.ErrReplies)
	}
	return e
}
