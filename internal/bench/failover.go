package bench

import (
	"fmt"

	"skv/internal/cluster"
	"skv/internal/core"
	"skv/internal/metrics"
	"skv/internal/model"
	"skv/internal/sim"
)

// ExtFailover measures the §III-D failure-detection and failover chain from
// the NIC's timeline tracer: crash the master under client load, restart it,
// and report each transition's latency relative to the crash (detection =
// first mark-down, failover = promote order, recovery = restore + demote).
// Default probe parameters (probe 1s, waiting-time 2s) — the paper's scale.
func ExtFailover() *Experiment {
	e := &Experiment{
		ID:    "ext-failover",
		Title: "Failure detection and failover latency (SKV, 3 slaves, master crash + restart)",
		Cols:  []Col{keyCol("event", ""), {Name: "node"}, numCol("t (s)", "%.2f"), numCol("since crash (s)", "%.2f")},
		Notes: []string{
			"timeline recorded by Nic-KV's failover tracer (probe-miss -> mark-down -> promote -> restore -> demote)",
			"detection latency is bounded by waiting-time + one probe period (paper: probe 1s, waiting-time 2s)",
		},
	}
	cfg := core.DefaultConfig()
	cfg.ProgressInterval = 50 * sim.Millisecond
	crashAfter := 1500 * sim.Millisecond
	restartAfter := 8 * sim.Second
	horizon := 14 * sim.Second
	var p *model.Params
	if smoke {
		crashAfter, restartAfter, horizon = 500*sim.Millisecond, 2*sim.Second, 4*sim.Second
		pp := model.Default()
		pp.ProbePeriod = 100 * sim.Millisecond
		pp.WaitingTime = 300 * sim.Millisecond
		p = &pp
	}
	var crashAt sim.Time
	c, _, err := cluster.RunScenario(cluster.Scenario{
		Name:   "ext-failover",
		Config: cluster.Config{Kind: cluster.KindSKV, Slaves: 3, Clients: 4, Seed: 53, Params: p, SKV: cfg},
		RunFor: horizon, Settle: 2 * sim.Second,
		Script: func(h *cluster.Chaos) {
			crashAt = h.C.Eng.Now().Add(crashAfter)
			h.CrashMaster(crashAfter, 0)
			h.RestartMaster(restartAfter, 0)
		},
		// The experiment reports the timeline; it does not judge the end state.
		Check: func(*cluster.Chaos) error { return nil },
	})
	if err != nil {
		panic(err)
	}
	tl := c.Groups[0].NicKV.Timeline()
	for _, typ := range []metrics.EventType{metrics.EventProbeMiss, metrics.EventMarkDown,
		metrics.EventPromote, metrics.EventRestore, metrics.EventDemote} {
		if ev, ok := tl.FirstAfter(typ, crashAt); ok {
			e.add(typ.String(), ev.Node, float64(ev.At)/float64(sim.Second), ev.At.Sub(crashAt).Seconds())
		} else {
			e.add(typ.String(), "-", "-", "never")
		}
	}

	var errs uint64
	for _, cl := range c.Clients {
		errs += cl.Stats().ErrReplies
	}
	e.Notes = append(e.Notes, fmt.Sprintf("client error replies across the outage: %d", errs))

	// Detector health from the NIC's metrics snapshot: the probe RTT.
	if rtt, ok := c.Groups[0].NicKV.Metrics().Snapshot().Hists["nickv.probe.rtt"]; ok && rtt.Count > 0 {
		e.Notes = append(e.Notes, fmt.Sprintf(
			"probe RTT (n=%d): p50=%.1fµs p99=%.1fµs — detection latency is dominated by waiting-time, not probe transit",
			rtt.Count, rtt.P50.Micros(), rtt.P99.Micros()))
	}
	return e
}
