// Chaos: run every scenario of the chaos harness (internal/cluster) end to
// end through its one runner and print each scenario's event trace plus its
// verdict. The canned five drive the SmartNIC failure detector (§III-D)
// through a different failure shape each — master restart after failover,
// slave crash/recovery, a flapping endpoint, a NIC↔slave partition, and
// lossy links — using the deterministic fault-injection plane in
// internal/fabric; per-slot failover, reshard under load and the ack-loss
// probe (async and quorum) are the same kind of value over a different
// cluster.Config. Same seeds, same traces, every run. Exits 1 if any
// scenario fails its check.
package main

import (
	"fmt"
	"os"

	"skv/internal/cluster"
)

func main() {
	failed := 0
	for _, s := range cluster.AllScenarios() {
		cfg := s.Config
		fmt.Printf("== %s (masters=%d slaves=%d clients=%d seed=%d consistency=%s) ==\n", s.Name,
			max(cfg.Cluster.Masters, 1), cfg.Slaves+cfg.Cluster.SlavesPerMaster, cfg.Clients, cfg.Seed, cfg.Consistency.Level)
		c, h, err := cluster.RunScenario(s)
		fmt.Print(h.TraceString())
		if err != nil {
			failed++
			fmt.Printf("FAILED: %v\n\n", err)
			continue
		}
		var clientErrs uint64
		for _, cl := range c.Clients {
			clientErrs += cl.Stats().ErrReplies
		}
		fmt.Printf("passed: %d client errors", clientErrs)
		for gi, g := range c.Groups {
			fmt.Printf("; g%d master offset %d, %d valid slaves, %d failovers, %d restores",
				gi, g.Master.ReplOffset(), g.NicKV.ValidSlaves(), g.NicKV.Failovers, g.NicKV.MasterRestores)
		}
		fmt.Print("\n\n")
	}
	if failed > 0 {
		fmt.Printf("%d scenario(s) failed\n", failed)
		os.Exit(1)
	}
	fmt.Println("all scenarios passed")
}
