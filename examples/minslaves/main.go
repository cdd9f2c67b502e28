// min-slaves: exercise SKV's write gates (§III-C/§III-D). With
// min-slaves=2, the master keeps accepting writes while two slaves answer
// Nic-KV's probes — and starts refusing them (error replies to the client)
// once a slave crash leaves too few available replicas. When the slave
// recovers and is folded back in, writes resume.
package main

import (
	"fmt"

	"skv/internal/cluster"
	"skv/internal/core"
	"skv/internal/sim"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.MinSlaves = 2 // the paper's min-slaves parameter
	c := cluster.Build(cluster.Config{
		Kind: cluster.KindSKV, Slaves: 2, Clients: 4, Seed: 99, SKV: cfg,
	})
	if !c.AwaitReplication(5 * sim.Second) {
		panic("replication did not converge")
	}
	// Let the first Nic-KV status report reach the master's write gate.
	c.Run(c.Eng.Now().Add(2 * sim.Second))
	c.StartClients()
	g := c.Groups[0]

	errsBefore := func() uint64 {
		var n uint64
		for _, cl := range c.Clients {
			n += cl.Stats().ErrReplies
		}
		return n
	}

	base := c.Eng.Now()
	snapshot := func(label string) {
		fmt.Printf("t=%4.1fs  %-28s valid slaves: %d   error replies so far: %d\n",
			sim.Duration(c.Eng.Now()-base).Seconds(), label,
			g.NicKV.ValidSlaves(), errsBefore())
	}

	c.Eng.At(base.Add(1*sim.Second), func() { snapshot("steady state") })
	c.Eng.At(base.Add(2*sim.Second), func() {
		g.Slaves[1].Crash()
		snapshot("slave1 crashes")
	})
	c.Eng.At(base.Add(6*sim.Second), func() { snapshot("below min-slaves: writes fail") })
	c.Eng.At(base.Add(7*sim.Second), func() {
		g.Slaves[1].Recover()
		snapshot("slave1 recovers")
	})
	c.Eng.At(base.Add(11*sim.Second), func() { snapshot("writes accepted again") })
	c.Eng.Run(base.Add(12 * sim.Second))

	fmt.Println("\nwhile the cluster was below min-slaves, every write got:")
	fmt.Println("  (error) NOREPLICAS Not enough available slaves to accept writes.")
}
