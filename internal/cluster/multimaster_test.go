package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"skv/internal/core"
	"skv/internal/fabric"
	"skv/internal/server"
	"skv/internal/sim"
	"skv/internal/slots"
)

// TestMultiMasterValidate pins the Config surface: every invalid
// combination of the multi-master knobs is rejected with a clear error,
// and the valid shapes pass.
func TestMultiMasterValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // "" = valid
	}{
		{"single-group", Config{Kind: KindSKV, Slaves: 2}, ""},
		{"masters-1-is-single-group", Config{Kind: KindSKV, Cluster: ClusterOpts{Masters: 1}, Slaves: 2}, ""},
		{"multi-ok", Config{Kind: KindSKV, Cluster: ClusterOpts{Masters: 2, SlavesPerMaster: 1}}, ""},

		{"multi-needs-skv", Config{Kind: KindRDMA, Cluster: ClusterOpts{Masters: 2, SlavesPerMaster: 1}}, "requires Kind=KindSKV"},
		{"multi-rejects-slaves", Config{Kind: KindSKV, Cluster: ClusterOpts{Masters: 2, SlavesPerMaster: 1}, Slaves: 3}, "conflicts with the single-group Slaves field"},
		{"multi-needs-slaves", Config{Kind: KindSKV, Cluster: ClusterOpts{Masters: 2}}, "SlavesPerMaster >= 1"},
		{"multi-rejects-nic-clients", Config{Kind: KindSKV, Cluster: ClusterOpts{Masters: 2, SlavesPerMaster: 1}, NicReads: NicReadsClients}, "NicReads=clients is not supported"},
		{"single-rejects-spm", Config{Kind: KindSKV, Slaves: 2, Cluster: ClusterOpts{SlavesPerMaster: 1}}, "only meaningful with Masters>1"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: expected an error containing %q, got nil", tc.name, tc.wantErr)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestSingleGroupIsDegenerateCluster: Masters 0 and 1 run the same group
// loop as N > 1 and come out as one group with no slot plane and the plain
// node names. Groups is the one way to a node: Master and Slaves, kept for the
// frozen benchmark, point into it, and Cluster exports no other node handle.
func TestSingleGroupIsDegenerateCluster(t *testing.T) {
	for _, masters := range []int{0, 1} {
		c := Build(Config{Kind: KindSKV, Slaves: 2, Seed: 31,
			Cluster: ClusterOpts{Masters: masters}, SKV: core.DefaultConfig()})
		if len(c.Groups) != 1 || c.SlotMap != nil {
			t.Fatalf("masters=%d: %d groups, slot map %v; want 1 group and no slot plane", masters, len(c.Groups), c.SlotMap)
		}
		g := c.Groups[0]
		if c.Master != g.Master {
			t.Fatalf("masters=%d: Master does not point into Groups[0]", masters)
		}
		if len(c.Slaves) != 2 || len(g.SlaveAgents) != 2 || len(g.SlaveMachines) != 2 {
			t.Fatalf("masters=%d: %d slaves, %d agents, %d machines; want 2 each", masters, len(c.Slaves), len(g.SlaveAgents), len(g.SlaveMachines))
		}
		if got := g.Master.Name(); got != "master" {
			t.Fatalf("masters=%d: master is named %q", masters, got)
		}
		for i, s := range c.Slaves {
			if s != g.Slaves[i] {
				t.Fatalf("masters=%d: Slaves[%d] does not point into Groups[0]", masters, i)
			}
			if want := fmt.Sprintf("slave%d", i); s.Name() != want {
				t.Fatalf("masters=%d: slave %d is named %q, want %q", masters, i, s.Name(), want)
			}
		}
	}

	// A node handle is a field whose type reaches a server, an offload half
	// or a machine; everything else on Cluster is configuration, the engine,
	// the fabric, the slot table or the load.
	nodeTypes := []reflect.Type{
		reflect.TypeOf((*server.Server)(nil)), reflect.TypeOf((*core.HostKV)(nil)), reflect.TypeOf((*core.NicKV)(nil)),
		reflect.TypeOf((*core.SlaveAgent)(nil)), reflect.TypeOf((*fabric.Machine)(nil)), reflect.TypeOf((*Group)(nil)),
	}
	var handles []string
	ct := reflect.TypeOf(Cluster{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		ft := f.Type
		if ft.Kind() == reflect.Slice {
			ft = ft.Elem()
		}
		if f.IsExported() && slices.Contains(nodeTypes, ft) {
			handles = append(handles, f.Name)
		}
	}
	if want := []string{"Groups", "Master", "Slaves"}; !slices.Equal(handles, want) {
		t.Fatalf("Cluster exports node handles %v, want exactly %v", handles, want)
	}
}

// TestMultiMasterKeyspacePartitioned drives slot-aware clients against a
// 2-group deployment and checks the routing contract end to end: work
// lands on both groups, bootstrap MOVED redirects repair the client maps,
// no error replies leak through, every key lives on the group that owns
// its slot, and each group's slaves replicate their master exactly.
func TestMultiMasterKeyspacePartitioned(t *testing.T) {
	c := Build(Config{Kind: KindSKV, Cluster: ClusterOpts{Masters: 2, SlavesPerMaster: 1},
		Clients: 4, Pipeline: 4, Seed: 31, SKV: core.DefaultConfig()})
	if !c.AwaitReplication(2 * sim.Second) {
		t.Fatal("sync failed")
	}
	res := c.Measure(20*sim.Millisecond, 150*sim.Millisecond)
	for _, cl := range c.Clients {
		cl.Stop()
	}
	c.Eng.RunFor(500 * sim.Millisecond)

	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.ErrReplies != 0 {
		t.Fatalf("%d error replies leaked to clients", res.ErrReplies)
	}
	if res.Moved == 0 {
		t.Fatal("no MOVED redirects: the stale client bootstrap never exercised the redirect path")
	}
	if len(res.GroupOps) != 2 || res.GroupOps[0] == 0 || res.GroupOps[1] == 0 {
		t.Fatalf("load did not reach both groups: %v", res.GroupOps)
	}
	var refreshes uint64
	for _, cl := range c.Clients {
		refreshes += cl.Stats().MapRefreshes
	}
	if refreshes == 0 {
		t.Fatal("no client ever refreshed its slot map")
	}
	if err := c.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for gi, g := range c.Groups {
		fp := fingerprint(g.Master.Store())
		total += len(fp)
		for k := range fp {
			key := strings.TrimPrefix(k, "0/")
			if got := c.SlotMap.Owner(slots.Slot([]byte(key))); got != gi {
				t.Fatalf("key %q lives on g%d but its slot belongs to g%d", key, gi, got)
			}
		}
		for si, s := range g.Slaves {
			requireSameKeyspace(t, fmt.Sprintf("g%d slave%d", gi, si), g.Master.Store(), s.Store())
		}
	}
	if total == 0 {
		t.Fatal("no keys written anywhere")
	}
}

// TestMultiMasterThroughputScales: two groups with the same per-master
// tuning must clear well over 1.5x the aggregate SET throughput of one
// (the ext-cluster bench pins the full 1/2/4 sweep). The client count is
// the same in both runs — the slot clients' per-group windows keep the
// offered load per master constant as groups are added.
func TestMultiMasterThroughputScales(t *testing.T) {
	run := func(masters int) Result {
		cfg := Config{Kind: KindSKV, Clients: 8, Pipeline: 8,
			Seed: 67, SKV: core.DefaultConfig()}
		if masters == 1 {
			cfg.Slaves = 1
		} else {
			cfg.Cluster = ClusterOpts{Masters: masters, SlavesPerMaster: 1}
		}
		c := Build(cfg)
		if !c.AwaitReplication(2 * sim.Second) {
			t.Fatalf("masters=%d: sync failed", masters)
		}
		return c.Measure(20*sim.Millisecond, 150*sim.Millisecond)
	}
	res1 := run(1)
	res2 := run(2)
	if res2.ErrReplies != 0 {
		t.Fatalf("masters=2: %d error replies", res2.ErrReplies)
	}
	scale := res2.Throughput / res1.Throughput
	if scale < 1.5 {
		t.Fatalf("2 masters scaled only %.2fx over 1 (%.0f vs %.0f ops/s)",
			scale, res2.Throughput, res1.Throughput)
	}
}

// TestPerSlotFailoverIsolation is the blast-radius contract: crash one
// group's master under load and the surviving group must show zero errors
// and no empty availability buckets, while the victim group blips and then
// recovers on the promoted slave.
func TestPerSlotFailoverIsolation(t *testing.T) {
	s, r := PerSlotFailoverScenario(7)
	if _, h, err := RunScenario(s); err != nil {
		t.Fatalf("%v\ntimeline:\n%s\ntrace:\n%s", err, r.Avail.String(), h.TraceString())
	}
	survivor := 0
	for b, n := range r.Avail.Done[survivor] {
		if n == 0 {
			t.Errorf("survivor g%d served nothing in bucket %d — failover bled across groups\n%s",
				survivor, b, r.Avail.String())
		}
	}
	for b, n := range r.Avail.Errs[survivor] {
		if n != 0 {
			t.Errorf("survivor g%d returned %d errors in bucket %d\n%s", survivor, n, b, r.Avail.String())
		}
	}
	empty, recovered := r.Avail.Outage(r.Victim)
	if empty == 0 {
		t.Errorf("victim g%d shows no outage at all — the crash did nothing\n%s", r.Victim, r.Avail.String())
	}
	if !recovered {
		t.Errorf("victim g%d never served again after the outage\n%s", r.Victim, r.Avail.String())
	}
	if r.Promoted < 0 {
		t.Error("no slave was promoted in the victim group")
	}
}
