// Ack-loss probe: the scenario behind the consistency plane's headline
// claim. The closed-loop ledger writer hammers a single-master SKV deployment
// whose replication stream is batched (so acknowledged bytes can sit
// unflushed on the master), the master crashes mid-load, the NIC fails over,
// and the probe then audits every write the cluster ACKNOWLEDGED against the
// promoted survivor's store. Under async consistency the batching window is
// a durability hole — acked writes die with the master. Under quorum/all the
// reply only fires after enough slaves hold the write and failover promotes
// the max-offset survivor, so the audit must come back clean.
package cluster

import (
	"fmt"

	"skv/internal/consistency"
	"skv/internal/server"
	"skv/internal/sim"
)

// aklCrashAt is how far into the load the probe starts looking for its
// crash instant.
const aklCrashAt = 307 * sim.Millisecond

// CrashInstant names what the replication pipeline has just done when the
// probe kills the master.
type CrashInstant int

const (
	// CrashOnTime kills the master aklCrashAt into the load, whatever it is
	// doing.
	CrashOnTime CrashInstant = iota
	// CrashMidBatch waits until executed writes sit unflushed in the stream
	// writer (at batch 1 there is no such moment: same as CrashOnTime).
	CrashMidBatch
	// CrashAfterFlush waits until the next replication request has left for
	// the NIC.
	CrashAfterFlush
	// CrashAfterRelease waits until the master has next fired parked replies:
	// they are on the wire, and the writes behind them are all it got out.
	CrashAfterRelease
)

func (i CrashInstant) String() string {
	return [...]string{"on time", "mid-batch", "after a flush", "after a release"}[i]
}

// AckLossSpec is one cell of the probe.
type AckLossSpec struct {
	Level consistency.Level
	W     int
	Seed  int64
	// Batch is ReplBatchMaxCmds; 0 is the probe's 64.
	Batch int
	// Crash picks the instant, at or after aklCrashAt, the master dies at.
	Crash CrashInstant
	// Partition cuts slave 0 — the head of the node list, which a
	// first-valid failover would promote — from the NIC before the crash.
	Partition bool
}

// AckLossResult is the probe state of one ack-loss run.
type AckLossResult struct {
	// L is the ledger; Lost lists each write it saw acknowledged that the
	// promoted survivor does not hold (empty = the consistency level held
	// its durability promise).
	L    *ledger
	Lost []string
	// Promoted names the slave the NIC promoted.
	Promoted string
}

// AckLossScenario is a 1-master/3-slave SKV deployment at the spec's write
// consistency level with the replication stream batched (64 cmds / 2ms by
// default — the window that makes async acks volatile). The ledger writer is
// its only load; the master crashes mid-load at the spec's instant, and the
// Check audits the ledger against the promoted survivor into the result. Its
// error covers harness failures (failover never happened); lost writes are
// data, reported in AckLossResult.Lost.
func AckLossScenario(spec AckLossSpec) (Scenario, *AckLossResult) {
	res := &AckLossResult{}
	cfg := chaosConfig(spec.Seed, 0)
	p := cfg.Params
	p.ReplBatchMaxCmds, p.ReplBatchMaxDelay = 64, 2*sim.Millisecond
	if spec.Batch > 0 {
		p.ReplBatchMaxCmds = spec.Batch
	}
	cfg.Consistency = ConsistencyOpts{Level: spec.Level, Quorum: spec.W}
	return Scenario{
		Name: "ack-loss-" + spec.Level.String(), Config: cfg, RunFor: 1300 * sim.Millisecond, Settle: 700 * sim.Millisecond,
		Script: func(h *Chaos) {
			c, g := h.C, h.C.Groups[0]
			var keys []string
			for i := 0; i < 8; i++ {
				keys = append(keys, fmt.Sprintf("akl:%d", i))
			}
			*res = AckLossResult{L: newLedger(c, "ackledger", keys, 4)}
			h.Load = []Load{res.L} // the probe's own load: the workload client stays idle
			if spec.Partition {
				h.PartitionNicSlave(100*sim.Millisecond, 0, 0)
			}
			// From aklCrashAt on, look every microsecond for the spec's instant and
			// kill the master in it; the ledger issues nothing more from then.
			released := g.Master.Metrics().Counter("consistency.writes_released")
			var flushes, releases uint64
			reached := func() bool {
				switch spec.Crash {
				case CrashMidBatch:
					return p.ReplBatchMaxCmds == 1 || g.Master.ReplStream().Pending() > 0
				case CrashAfterFlush:
					return g.HostKV.ReplReqsSent.Value() > flushes
				case CrashAfterRelease:
					return released.Value() > releases
				}
				return true
			}
			var watch func()
			watch = func() {
				if !reached() {
					c.Eng.After(sim.Microsecond, watch)
					return
				}
				h.Note("crash master")
				res.L.Stop()
				g.Master.Crash()
			}
			c.Eng.After(aklCrashAt, func() {
				flushes, releases = g.HostKV.ReplReqsSent.Value(), released.Value()
				watch()
			})
		},
		Check: func(h *Chaos) error {
			g := h.C.Groups[0]
			if res.L.Errs > 0 {
				return fmt.Errorf("ackloss: ledger absorbed %d error replies", res.L.Errs)
			}
			if res.L.WritesAcked == 0 {
				return fmt.Errorf("ackloss: ledger recorded no acknowledged write")
			}
			if g.NicKV.Failovers == 0 || g.NicKV.PromotedID() == "" {
				return fmt.Errorf("ackloss: the NIC never failed over (promoted=%q)", g.NicKV.PromotedID())
			}
			res.Promoted = g.NicKV.PromotedID()
			var surv *server.Server
			for _, s := range g.Slaves {
				if s.Alive() && s.Role() == server.RoleMaster {
					if surv != nil {
						return fmt.Errorf("ackloss: split brain — two promoted slaves")
					}
					surv = s
				}
			}
			if surv == nil {
				return fmt.Errorf("ackloss: no promoted slave is serving as master")
			}
			// Every acknowledged write must be visible on the promoted
			// survivor, as the acked value itself or a later one.
			res.Lost = res.L.audit(surv.Store(), false)
			return nil
		},
	}, res
}
