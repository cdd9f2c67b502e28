package cluster

import (
	"fmt"
	"strings"
	"testing"

	"skv/internal/core"
	"skv/internal/sim"
)

// TestNicThreadClampSurfaced checks the observability contract around the
// ThreadNum clamp: asking for more replication threads than the SmartNIC
// has ARM cores silently ran fewer — now the effective count is a gauge on
// the NIC registry and a line in the master's INFO SKV section.
func TestNicThreadClampSurfaced(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ThreadNum = 99 // far beyond the ARM core count: must clamp
	c := Build(Config{Kind: KindSKV, Slaves: 1, Clients: 0, Seed: 12, SKV: cfg})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	eff := c.Groups[0].NicKV.EffectiveThreads()
	if eff != c.Params.NICCores {
		t.Fatalf("EffectiveThreads = %d, want clamp to NICCores = %d", eff, c.Params.NICCores)
	}
	if g := c.Groups[0].NicKV.Metrics().Gauge("nickv.threads.effective").Value(); g != int64(eff) {
		t.Fatalf("gauge nickv.threads.effective = %d, want %d", g, eff)
	}
	// The effective count rides the periodic status frame to the master and
	// surfaces in INFO; run past at least one probe period.
	c.Run(c.Eng.Now().Add(3 * sim.Second))
	reply, _ := c.Master.Store().Exec(0, [][]byte{[]byte("INFO")})
	wantLine := fmt.Sprintf("nic_repl_threads:%d", eff)
	if !strings.Contains(string(reply), wantLine) {
		t.Fatalf("INFO missing %q:\n%s", wantLine, reply)
	}
}
