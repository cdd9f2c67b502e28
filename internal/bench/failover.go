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
		ID:     "ext-failover",
		Title:  "Failure detection and failover latency (SKV, 3 slaves, master crash + restart)",
		Header: []string{"event", "node", "t (s)", "since crash (s)"},
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
	row := func(typ metrics.EventType) {
		ev, ok := tl.FirstAfter(typ, crashAt)
		if !ok {
			e.Rows = append(e.Rows, []string{typ.String(), "-", "-", "never"})
			return
		}
		e.Rows = append(e.Rows, []string{
			typ.String(), ev.Node,
			f2(float64(ev.At) / float64(sim.Second)),
			f2(ev.At.Sub(crashAt).Seconds()),
		})
		e.metric(typ.String()+"_s", ev.At.Sub(crashAt).Seconds())
	}
	row(metrics.EventProbeMiss)
	row(metrics.EventMarkDown)
	row(metrics.EventPromote)
	row(metrics.EventRestore)
	row(metrics.EventDemote)

	var errs uint64
	for _, cl := range c.Clients {
		errs += cl.Stats().ErrReplies
	}
	e.metric("err_replies", float64(errs))
	e.Notes = append(e.Notes, fmt.Sprintf("client error replies across the outage: %d", errs))

	// Detector health from the NIC's metrics snapshot: probe RTT and how
	// many probes went unanswered across the run.
	snap := c.Groups[0].NicKV.Metrics().Snapshot()
	if rtt, ok := snap.Hists["nickv.probe.rtt"]; ok && rtt.Count > 0 {
		e.metric("probe_rtt_p99_us", rtt.P99.Micros())
		e.Notes = append(e.Notes, fmt.Sprintf(
			"probe RTT (n=%d): p50=%.1fµs p99=%.1fµs — detection latency is dominated by waiting-time, not probe transit",
			rtt.Count, rtt.P50.Micros(), rtt.P99.Micros()))
	}
	e.metric("probes_sent", float64(snap.Counters["nickv.probe.sent"]))
	e.metric("probe_acks", float64(snap.Counters["nickv.probe.acks"]))
	return e
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
