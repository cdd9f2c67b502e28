// Per-slot failover scenario: the multi-master counterpart of the canned
// chaos scenarios. It kills one replication group's master under slot-aware
// client load and samples a per-group availability timeline, so tests can
// assert the blast radius of a failover is exactly the victim group's slot
// range — every other group keeps serving with zero errors and no dip —
// and that the victim's slots come back once the SmartNIC promotes a slave
// and the slot map repoints them.
package cluster

import (
	"fmt"
	"strings"

	"skv/internal/server"
	"skv/internal/sim"
)

// SlotAvailability is a sampled per-group availability timeline: completed
// operations (and error replies) per bucket per replication group, summed
// over all slot-aware clients.
type SlotAvailability struct {
	Bucket sim.Duration
	// Done[g][b] is group g's completed ops in bucket b; Errs likewise for
	// error replies.
	Done [][]uint64
	Errs [][]uint64

	c        *Cluster
	ticker   *sim.Ticker
	lastDone []uint64
	lastErrs []uint64
}

// Start begins bucketed sampling of per-group completions on a multi-master
// cluster, and Stop ends it: as a Load the sampler spans exactly the scripted
// horizon, so trailing idle buckets don't read as an outage. Buckets are
// deltas: a zero entry means the group served nothing in that window.
func (a *SlotAvailability) Start() {
	n := len(a.c.Groups)
	a.Done, a.Errs = make([][]uint64, n), make([][]uint64, n)
	a.lastDone, a.lastErrs = make([]uint64, n), make([]uint64, n)
	a.ticker = a.c.Eng.Every(a.Bucket, a.sample)
}

func (a *SlotAvailability) Stop() { a.ticker.Stop() }

func (a *SlotAvailability) sample() {
	done := make([]uint64, len(a.c.Groups))
	errs := make([]uint64, len(a.c.Groups))
	for _, cl := range a.c.Clients {
		st := cl.Stats()
		for g := range done {
			done[g] += st.GroupDone[g]
			errs[g] += st.GroupErrs[g]
		}
	}
	for g := range done {
		a.Done[g] = append(a.Done[g], done[g]-a.lastDone[g])
		a.Errs[g] = append(a.Errs[g], errs[g]-a.lastErrs[g])
	}
	a.lastDone = done
	a.lastErrs = errs
}

// String renders the timeline, one row per group (test and example output).
func (a *SlotAvailability) String() string {
	var b strings.Builder
	for g := range a.Done {
		fmt.Fprintf(&b, "g%d done=%v errs=%v\n", g, a.Done[g], a.Errs[g])
	}
	return b.String()
}

// Outage reports the victim-side shape of the timeline for one group: how
// many buckets served nothing (the outage window) and whether the group
// recovered (served again after its last empty bucket).
func (a *SlotAvailability) Outage(group int) (emptyBuckets int, recovered bool) {
	lastEmpty := -1
	for b, n := range a.Done[group] {
		if n == 0 {
			emptyBuckets++
			lastEmpty = b
		}
	}
	for b := lastEmpty + 1; b < len(a.Done[group]); b++ {
		if a.Done[group][b] > 0 {
			recovered = true
		}
	}
	return emptyBuckets, recovered && lastEmpty >= 0
}

// PerSlotFailoverResult is the probe state of one per-slot failover run.
type PerSlotFailoverResult struct {
	Avail *SlotAvailability
	// Victim is the group whose master was crashed; Promoted the index of
	// the slave that took over (-1: none).
	Victim   int
	Promoted int
}

// PerSlotFailoverScenario is a 2×2 hash-slot deployment under four
// pipelined slot-aware clients whose group 1 master crashes 300ms into the
// load, under a 50ms availability sampler; the result fills in as the
// scenario runs. The victim master is NOT restarted: the scenario ends with
// the promoted slave serving the group's slots (its Check), which is the
// steady state a real cluster runs in until an operator re-adds the node.
// The availability-timeline assertions live in the tests so failures print
// the timeline.
func PerSlotFailoverScenario(seed int64) (Scenario, *PerSlotFailoverResult) {
	const victim = 1
	res := &PerSlotFailoverResult{}
	cfg := chaosConfig(seed, 0)
	cfg.Slaves, cfg.Cluster = 0, ClusterOpts{Masters: 2, SlavesPerMaster: 2}
	cfg.Clients, cfg.Pipeline = 4, 4
	return Scenario{
		Name: "per-slot-failover", Config: cfg, RunFor: 1500 * sim.Millisecond, Settle: 1 * sim.Second,
		Script: func(h *Chaos) {
			*res = PerSlotFailoverResult{Avail: &SlotAvailability{Bucket: 50 * sim.Millisecond, c: h.C}, Victim: victim, Promoted: -1}
			h.Load = append(h.Load, res.Avail)
			h.CrashMaster(300*sim.Millisecond, victim)
		},
		Check: func(h *Chaos) error {
			c := h.C
			var errs []string
			add := func(format string, a ...any) { errs = append(errs, fmt.Sprintf(format, a...)) }
			for i, s := range c.Groups[victim].Slaves {
				if s.Alive() && s.Role() == server.RoleMaster {
					res.Promoted = i
				}
			}
			if res.Promoted < 0 {
				add("no slave of g%d was promoted to master", victim)
			} else {
				promotedAddr := c.Groups[victim].SlaveMachines[res.Promoted].Host.Name()
				if got := c.SlotMap.Addr(victim); got != promotedAddr {
					add("slot map points g%d at %q, want promoted slave %q", victim, got, promotedAddr)
				}
			}
			if c.SlotMap.Epoch() <= 1 {
				add("slot map epoch %d never advanced past the initial epoch", c.SlotMap.Epoch())
			}
			// Survivor groups must still satisfy the full single-group invariants.
			for gi, g := range c.Groups {
				if gi == victim {
					continue
				}
				for _, e := range checkGroupConvergence(g) {
					add("g%d: %s", gi, e)
				}
			}
			if len(errs) == 0 {
				return nil
			}
			return fmt.Errorf("per-slot failover: %s", strings.Join(errs, "; "))
		},
	}, res
}
