// Per-slot failover harness: the multi-master counterpart of the chaos
// scenarios. It kills one replication group's master under slot-aware
// client load and samples a per-group availability timeline, so tests can
// assert the blast radius of a failover is exactly the victim group's slot
// range — every other group keeps serving with zero errors and no dip —
// and that the victim's slots come back once the SmartNIC promotes a slave
// and the slot map repoints them.
package cluster

import (
	"fmt"
	"strings"

	"skv/internal/core"
	"skv/internal/server"
	"skv/internal/sim"
)

// SlotAvailability is a sampled per-group availability timeline: completed
// operations (and error replies) per bucket per replication group, summed
// over all slot-aware clients.
type SlotAvailability struct {
	Bucket sim.Duration
	Start  sim.Time
	// Done[g][b] is group g's completed ops in bucket b; Errs likewise for
	// error replies.
	Done [][]uint64
	Errs [][]uint64

	c        *Cluster
	ticker   *sim.Ticker
	lastDone []uint64
	lastErrs []uint64
}

// Stop ends sampling (call when the load stops, so trailing idle buckets
// don't read as an outage).
func (a *SlotAvailability) Stop() { a.ticker.Stop() }

// SampleSlotAvailability starts bucketed sampling of per-group completions
// on a multi-master cluster. Buckets are deltas, so a zero entry means the
// group served nothing in that window.
func SampleSlotAvailability(c *Cluster, bucket sim.Duration) *SlotAvailability {
	a := &SlotAvailability{
		Bucket:   bucket,
		Start:    c.Eng.Now(),
		Done:     make([][]uint64, len(c.Groups)),
		Errs:     make([][]uint64, len(c.Groups)),
		c:        c,
		lastDone: make([]uint64, len(c.Groups)),
		lastErrs: make([]uint64, len(c.Groups)),
	}
	a.ticker = c.Eng.Every(bucket, a.sample)
	return a
}

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

// PerSlotFailoverResult is everything RunPerSlotFailover measured.
type PerSlotFailoverResult struct {
	C     *Cluster
	H     *Chaos
	Avail *SlotAvailability
	// Victim is the group whose master was crashed; Promoted the index of
	// the slave that took over.
	Victim   int
	Promoted int
}

// perSlotFailoverSpec pins the scenario's shape so two runs with the same
// seed are comparable (the determinism tests re-run it verbatim).
const (
	psfMasters     = 2
	psfSlaves      = 2 // per master
	psfClients     = 4
	psfPipeline    = 4
	psfVictim      = 1
	psfCrashAt     = 300 * sim.Millisecond
	psfRunFor      = 1500 * sim.Millisecond
	psfSettle      = 1 * sim.Second
	psfBucket      = 50 * sim.Millisecond
	psfProgressInt = 50 * sim.Millisecond
)

// RunPerSlotFailover builds a 2-group hash-slot deployment, crashes group
// 1's master mid-load, and returns the availability timeline plus the end
// state. The victim master is NOT restarted: the scenario ends with the
// promoted slave serving the group's slots (checked here), which is the
// steady state a real cluster runs in until an operator re-adds the node.
func RunPerSlotFailover(seed int64) (*PerSlotFailoverResult, error) {
	p := ChaosParams(0)
	c := Build(Config{
		Kind:     KindSKV,
		Cluster:  ClusterOpts{Masters: psfMasters, SlavesPerMaster: psfSlaves},
		Clients:  psfClients,
		Pipeline: psfPipeline,
		Seed:     seed,
		Params:   p,
		SKV:      core.Config{ProgressInterval: psfProgressInt},
	})
	if !c.AwaitReplication(2 * sim.Second) {
		return nil, fmt.Errorf("per-slot failover: initial replication did not complete")
	}
	h := NewChaos(c)
	h.Note("replication ready")
	c.StartClients()
	avail := SampleSlotAvailability(c, psfBucket)
	h.At(psfCrashAt, fmt.Sprintf("crash g%d master", psfVictim), func(c *Cluster) {
		c.Groups[psfVictim].Master.Crash()
	})
	c.Eng.RunFor(psfRunFor)
	avail.Stop()
	for _, cl := range c.Clients {
		cl.Stop()
	}
	h.Note("load stopped")
	c.Eng.RunFor(psfSettle)
	h.Note("settled")

	res := &PerSlotFailoverResult{C: c, H: h, Avail: avail, Victim: psfVictim, Promoted: -1}
	victim := c.Groups[psfVictim]
	for i, s := range victim.Slaves {
		if s.Alive() && s.Role() == server.RoleMaster {
			res.Promoted = i
		}
	}
	return res, res.check()
}

// check asserts the post-failover end state the ISSUE's acceptance criteria
// name; the availability-timeline assertions live in the tests so failures
// print the timeline.
func (r *PerSlotFailoverResult) check() error {
	var errs []string
	add := func(format string, a ...any) { errs = append(errs, fmt.Sprintf(format, a...)) }
	c := r.C
	victim := c.Groups[r.Victim]

	if r.Promoted < 0 {
		add("no slave of g%d was promoted to master", r.Victim)
	} else {
		promotedAddr := victim.SlaveMachines[r.Promoted].Host.Name()
		if got := c.SlotMap.Addr(r.Victim); got != promotedAddr {
			add("slot map points g%d at %q, want promoted slave %q", r.Victim, got, promotedAddr)
		}
	}
	if c.SlotMap.Epoch() <= 1 {
		add("slot map epoch %d never advanced past the initial epoch", c.SlotMap.Epoch())
	}
	// Survivor groups must still satisfy the full single-group invariants.
	for gi, g := range c.Groups {
		if gi == r.Victim {
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
}
