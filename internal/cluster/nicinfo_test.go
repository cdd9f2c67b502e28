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

// TestSKVSlaveInfoReportsAgentLink checks INFO replication on an SKV slave.
// Such a slave follows the stream through its agent and Nic-KV, never
// through a baseline master link, so the section must report the agent's
// steady state and applied offset — not "down" and 0.
func TestSKVSlaveInfoReportsAgentLink(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Slaves: 2, Clients: 2, Seed: 21, SKV: core.DefaultConfig()})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	c.Measure(0, 20*sim.Millisecond)
	for _, cl := range c.Clients {
		cl.Stop()
	}
	c.Run(c.Eng.Now().Add(200 * sim.Millisecond))
	g := c.Groups[0]
	want := g.Master.ReplOffset()
	if want == 0 {
		t.Fatal("nothing replicated")
	}
	for i, s := range g.Slaves {
		if a := g.SlaveAgents[i]; !a.Synced() || a.Offset() != want {
			t.Fatalf("slave%d agent: synced=%t offset %d, master %d", i, a.Synced(), a.Offset(), want)
		}
		reply, _ := s.Store().Exec(0, [][]byte{[]byte("INFO"), []byte("replication")})
		for _, line := range []string{"master_link_status:up\r\n", fmt.Sprintf("slave_repl_offset:%d\r\n", want)} {
			if !strings.Contains(string(reply), line) {
				t.Errorf("slave%d INFO replication lacks %q:\n%s", i, line, reply)
			}
		}
	}
}
