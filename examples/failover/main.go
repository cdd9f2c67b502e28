// Failover: exercise SKV's SmartNIC-resident failure detector (§III-D).
// A slave's Host-KV process crashes under write load: Nic-KV's 1-second
// probes notice within waiting-time, flag the node invalid, and keep
// replicating to the survivors; the client never sees an error. Then the
// master itself crashes: Nic-KV promotes a slave, and when the original
// master returns it is restored and the stand-in demoted.
package main

import (
	"fmt"

	"skv/internal/cluster"
	"skv/internal/core"
	"skv/internal/sim"
)

func main() {
	c := cluster.Build(cluster.Config{
		Kind: cluster.KindSKV, Slaves: 3, Clients: 4, Seed: 13,
		SKV: core.DefaultConfig(),
	})
	if !c.AwaitReplication(5 * sim.Second) {
		panic("replication did not converge")
	}
	c.StartClients()
	g := c.Groups[0]
	base := c.Eng.Now()
	at := func(d sim.Duration, fn func()) { c.Eng.At(base.Add(d), fn) }
	report := func(label string) {
		fmt.Printf("t=%4.1fs  %-42s valid slaves: %d  master valid: %v  promoted: %q\n",
			sim.Duration(c.Eng.Now()-base).Seconds(), label,
			g.NicKV.ValidSlaves(), g.NicKV.MasterValid(), g.NicKV.PromotedID())
	}

	fmt.Println("== phase 1: slave failure under load ==")
	at(1*sim.Second, func() { g.Slaves[1].Crash(); report("slave1 Host-KV crashes") })
	at(4500*sim.Millisecond, func() { report("(after probe + waiting-time)") })
	at(6*sim.Second, func() { g.Slaves[1].Recover(); report("slave1 recovers") })
	at(9*sim.Second, func() { report("(after next probe round)") })
	c.Eng.Run(base.Add(10 * sim.Second))

	var errs uint64
	for _, cl := range c.Clients {
		errs += cl.Stats().ErrReplies
	}
	fmt.Printf("client error replies so far: %d (clients never noticed)\n", errs)

	fmt.Println("\n== phase 2: master failure and restore ==")
	base = c.Eng.Now()
	at(1*sim.Second, func() { g.Master.Crash(); report("master Host-KV crashes") })
	at(5*sim.Second, func() { report("(Nic-KV promoted a slave)") })
	at(6*sim.Second, func() { g.Master.Recover(); report("original master recovers") })
	at(9*sim.Second, func() { report("(restored; stand-in demoted)") })
	c.Eng.Run(base.Add(10 * sim.Second))

	// Final consistency check once everything settles.
	c.Eng.Run(c.Eng.Now().Add(2 * sim.Second))
	fmt.Printf("\nfinal keyspace sizes  master: %d  slaves:", g.Master.Store().DBSize(0))
	for _, s := range g.Slaves {
		fmt.Printf(" %d", s.Store().DBSize(0))
	}
	fmt.Println()
}
