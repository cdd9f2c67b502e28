package cluster

import (
	"testing"

	"skv/internal/core"
	"skv/internal/sim"
	"skv/internal/slots"
)

// TestReshardUnderLoad runs the live migration scenario: slots 0..255 move
// from g0 to g1 while slot-aware clients and the ledger writer keep the
// range hot. The invariant battery lives in the scenario's Check (no lost
// acknowledged write, source drained, ownership flipped, groups converged);
// here we additionally pin that the ASK machinery actually fired — a
// migration nobody raced would pass the check without testing anything.
func TestReshardUnderLoad(t *testing.T) {
	s, r := ReshardScenario(42, false)
	c, h, err := RunScenario(s)
	if err != nil {
		t.Logf("trace:\n%s", h.TraceString())
		t.Logf("mover: moved=%d retries=%d compensations=%d slots=%d",
			r.M.KeysMoved, r.M.KeyRetries, r.M.Compensations, r.M.SlotsDone)
		t.Logf("ledger: acked=%d asked=%d moved=%d errs=%d",
			r.L.WritesAcked, r.L.Asked, r.L.Moved, r.L.Errs)
		t.Fatal(err)
	}
	if r.M.SlotsDone != rshSlotEnd-rshSlotStart+1 {
		t.Errorf("mover flipped %d slots, want %d", r.M.SlotsDone, rshSlotEnd-rshSlotStart+1)
	}
	if r.L.Asked == 0 {
		t.Error("the ledger writer never got an ASK redirect — the migration window was never observed by a client")
	}
	var clientAsked, clientRefreshes uint64
	for _, cl := range c.Clients {
		st := cl.Stats()
		clientAsked += st.Asked
		clientRefreshes += st.MapRefreshes
	}
	if clientRefreshes == 0 {
		t.Error("no slot client ever refreshed its map — the final MOVED flip never reached the load")
	}
	t.Logf("mover: moved=%d retries=%d compensations=%d; ledger: acked=%d asked=%d moved=%d; clients: asked=%d refreshes=%d",
		r.M.KeysMoved, r.M.KeyRetries, r.M.Compensations, r.L.WritesAcked, r.L.Asked, r.L.Moved, clientAsked, clientRefreshes)
}

// TestSlotClientRedirectSemantics is the client-side contract the tentpole
// fixes: an ASK is a one-shot detour that must NOT touch the client's slot
// map (the source still owns the slot), while a MOVED must refresh it. The
// test opens a migration window by hand — marks the slot, teleports its
// keys to the target — and counter-asserts MapRefreshes stays frozen while
// ASKs flow, then flips ownership and demands the refresh.
func TestSlotClientRedirectSemantics(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Cluster: ClusterOpts{Masters: 2, SlavesPerMaster: 1},
		Clients: 2, Pipeline: 2, KeySpace: 200, GetRatio: 0.5,
		Seed: 91, SKV: core.DefaultConfig()})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	c.StartClients()
	c.Eng.RunFor(150 * sim.Millisecond) // settle: bootstrap MOVEDs repair the maps

	sums := func() (asked, moved, refreshes uint64) {
		for _, cl := range c.Clients {
			st := cl.Stats()
			asked += st.Asked
			moved += st.Moved
			refreshes += st.MapRefreshes
		}
		return
	}
	asked0, moved0, refreshes0 := sums()
	if asked0 != 0 {
		t.Fatalf("%d ASKs before any migration window exists", asked0)
	}

	// Open a migration window on the slot of some live g0 key, moving every
	// key in the slot to g1 by hand (stores manipulated directly: this test
	// is about the client's reaction, not the mover's protocol; replication
	// is deliberately bypassed, so no convergence check below).
	src, tgt := c.Groups[0].Master.Store(), c.Groups[1].Master.Store()
	seed := src.KeysWhere(0, 1, func(string) bool { return true })
	if len(seed) == 0 {
		t.Fatal("no keys at g0 after the warm-up")
	}
	slot := slots.Slot([]byte(seed[0]))
	if c.SlotMap.Owner(slot) != 0 {
		t.Fatalf("slot %d not owned by g0", slot)
	}
	if err := c.SlotMap.SetImporting(slot, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.SlotMap.SetMigrating(slot, 1); err != nil {
		t.Fatal(err)
	}
	inSlot := func(k string) bool { return slots.Slot([]byte(k)) == slot }
	for _, k := range src.KeysWhere(0, 0, inSlot) {
		payload, ok := src.SerializedEntry(0, k)
		if !ok {
			continue
		}
		tgt.Exec(0, [][]byte{[]byte("restore"), []byte(k), payload})
		src.Exec(0, [][]byte{[]byte("del"), []byte(k)})
	}
	c.Eng.RunFor(150 * sim.Millisecond)

	asked1, _, refreshes1 := sums()
	if asked1 == 0 {
		t.Fatal("no client ever got an ASK inside the migration window")
	}
	if refreshes1 != refreshes0 {
		t.Fatalf("ASK redirects refreshed the slot map (%d -> %d refreshes) — ASK must be a one-shot detour",
			refreshes0, refreshes1)
	}

	// Flip ownership: now the same stale views must earn MOVED + a refresh.
	if err := c.SlotMap.Assign(slot, slot, 1); err != nil {
		t.Fatal(err)
	}
	c.Eng.RunFor(150 * sim.Millisecond)
	_, moved2, refreshes2 := sums()
	if moved2 == moved0 {
		t.Fatal("ownership flip produced no MOVED redirect")
	}
	if refreshes2 == refreshes1 {
		t.Fatal("a MOVED redirect did not refresh the slot map")
	}
	for _, cl := range c.Clients {
		cl.Stop()
	}
}
