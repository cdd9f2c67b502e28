package bench

import (
	"strings"
	"testing"
)

func TestExperimentString(t *testing.T) {
	e := &Experiment{
		ID:     "x",
		Title:  "test",
		Header: []string{"col1", "longer-col"},
		Rows:   [][]string{{"a", "b"}, {"ccc", "d"}},
		Notes:  []string{"a note"},
	}
	out := e.String()
	for _, frag := range []string{"== x — test ==", "col1", "longer-col", "ccc", "note: a note"} {
		if !strings.Contains(out, frag) {
			t.Errorf("rendering missing %q:\n%s", frag, out)
		}
	}
}

func TestMetricStorage(t *testing.T) {
	e := &Experiment{}
	e.metric("k", 1.5)
	e.metric("k2", -3)
	if e.Metrics["k"] != 1.5 || e.Metrics["k2"] != -3 {
		t.Fatal("metrics not stored")
	}
}

// TestIDsAndByIDAgree checks the experiment table without running it
// (expensive): 21 distinct ids, and the dispatcher rejects garbage.
func TestIDsAndByIDAgree(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range IDs() {
		if seen[id] {
			t.Fatalf("experiment id %q listed twice", id)
		}
		seen[id] = true
	}
	if ByID("nonsense") != nil {
		t.Fatal("unknown id accepted")
	}
	if len(IDs()) != 21 {
		t.Fatalf("expected 21 experiments, got %d", len(IDs()))
	}
}

// TestExtShardsScalesInSmokeMode runs the sharding ablation at smoke scale
// and checks the acceptance properties: four shard cores clear more SETs
// than the single-threaded server, and sharding the dispatch/parse stage
// (listeners ≥ 2) clears more again than the dispatch-owned pipeline.
func TestExtShardsScalesInSmokeMode(t *testing.T) {
	savedWarmup, savedMeasure, savedSmoke := warmup, measure, smoke
	SetSmoke()
	defer func() { warmup, measure, smoke = savedWarmup, savedMeasure, savedSmoke }()
	e := ExtShards()
	if len(e.Rows) != 8 {
		t.Fatalf("rows: %d", len(e.Rows))
	}
	k1, k4 := e.Metrics["kops_shards1_l1"], e.Metrics["kops_shards4_l1"]
	if k1 <= 0 || k4 <= 0 {
		t.Fatalf("missing throughput metrics: %v", e.Metrics)
	}
	if k4 <= k1 {
		t.Fatalf("4 shards (%.1f kops/s) not faster than 1 (%.1f kops/s)", k4, k1)
	}
	if e.Metrics["gain_pct_shards4_l1"] <= 0 {
		t.Fatalf("gain_pct_shards4_l1 = %v", e.Metrics["gain_pct_shards4_l1"])
	}
	// The tentpole: routing listeners clear the dispatch-core ceiling.
	k4l2 := e.Metrics["kops_shards4_l2"]
	if k4l2 <= k4 {
		t.Fatalf("routing plane bought nothing: %.1f kops/s at 4 shards ×2 listeners vs %.1f at ×1", k4l2, k4)
	}
	// And the dispatch core is demoted to a thin merge stage.
	if du := e.Metrics["dispatch_util_pct_shards4_l2"]; du >= e.Metrics["dispatch_util_pct_shards4_l1"] {
		t.Fatalf("dispatch util did not drop: %.0f%% at ×2 listeners vs %.0f%% at ×1",
			du, e.Metrics["dispatch_util_pct_shards4_l1"])
	}
	// Per-caller WAIT: the probes must never trip the global barrier path.
	for _, key := range []string{"shards1_l1", "shards2_l1", "shards4_l1", "shards8_l1",
		"shards4_l2", "shards4_l4", "shards8_l2", "shards8_l4"} {
		if b := e.Metrics["wait_barriers_"+key]; b != 0 {
			t.Fatalf("WAIT probes fenced the pipeline at %s: %v barriers", key, b)
		}
	}
}

// TestAblateNICCacheScalesInSmokeMode runs the §IV-A ablation at smoke
// scale and checks the NIC read path scales with the shard count: the
// sharded shadow replica (4 ARM shard cores) must clear more GETs at 8
// clients than the single-core replica.
func TestAblateNICCacheScalesInSmokeMode(t *testing.T) {
	savedWarmup, savedMeasure, savedSmoke := warmup, measure, smoke
	SetSmoke()
	defer func() { warmup, measure, smoke = savedWarmup, savedMeasure, savedSmoke }()
	e := AblateNICCache()
	if len(e.Rows) != 5 {
		t.Fatalf("rows: %d", len(e.Rows))
	}
	n1, n4 := e.Metrics["nic_kops_8c_shards1"], e.Metrics["nic_kops_8c_shards4"]
	if n1 <= 0 || n4 <= 0 {
		t.Fatalf("missing NIC throughput metrics: %v", e.Metrics)
	}
	if n4 <= n1 {
		t.Fatalf("NIC reads at 4 shards (%.1f kops/s) not faster than 1 (%.1f kops/s)", n4, n1)
	}
	if e.Metrics["nic_gain_pct_shards4"] <= 0 {
		t.Fatalf("nic_gain_pct_shards4 = %v", e.Metrics["nic_gain_pct_shards4"])
	}
}

// TestExtTrackingBeatsNicReadsInSmokeMode runs the caching extension at
// smoke scale and checks the acceptance ordering: the tracked client
// cache must serve effective GET throughput above both the host-served
// and the NIC-served read paths at the default Zipfian skew, with a
// nonzero hit rate doing the lifting.
func TestExtTrackingBeatsNicReadsInSmokeMode(t *testing.T) {
	savedWarmup, savedMeasure, savedSmoke := warmup, measure, smoke
	SetSmoke()
	defer func() { warmup, measure, smoke = savedWarmup, savedMeasure, savedSmoke }()
	e := ExtTracking()
	if len(e.Rows) != 12 {
		t.Fatalf("rows: %d", len(e.Rows))
	}
	host := e.Metrics["host_kops_8c"]
	nic := e.Metrics["nic_kops_8c"]
	tracked := e.Metrics["tracked_host_kops_8c"]
	if host <= 0 || nic <= 0 || tracked <= 0 {
		t.Fatalf("missing throughput metrics: %v", e.Metrics)
	}
	if tracked <= nic {
		t.Fatalf("tracked GETs (%.1f kops/s) did not beat NIC-served reads (%.1f kops/s)", tracked, nic)
	}
	if tracked <= host {
		t.Fatalf("tracked GETs (%.1f kops/s) did not beat host-served reads (%.1f kops/s)", tracked, host)
	}
	if hr := e.Metrics["tracked_host_hit_rate_8c"]; hr <= 0 {
		t.Fatalf("tracked hit rate = %v", hr)
	}
	if e.Metrics["tracked_vs_nic_gain_pct_8c"] <= 0 {
		t.Fatalf("tracked_vs_nic_gain_pct_8c = %v", e.Metrics["tracked_vs_nic_gain_pct_8c"])
	}
}

func TestFig3RunsAndPreservesOrdering(t *testing.T) {
	e := Fig3()
	if e == nil || len(e.Rows) != 3 {
		t.Fatalf("fig3 rows: %+v", e)
	}
	hostHost := e.Metrics["host_host_64B_us"]
	remoteNIC := e.Metrics["remote_to_nic_64B_us"]
	localNIC := e.Metrics["local_to_nic_64B_us"]
	if !(localNIC < hostHost && hostHost < remoteNIC) {
		t.Fatalf("Fig 3 ordering violated: local=%v hosthost=%v remote=%v",
			localNIC, hostHost, remoteNIC)
	}
	// "Only a little lower": within 25%.
	if localNIC < 0.75*hostHost {
		t.Fatalf("local NIC latency too far below host↔host: %v vs %v", localNIC, hostHost)
	}
	// All in the low single-digit µs like the paper.
	for _, v := range []float64{hostHost, remoteNIC, localNIC} {
		if v < 0.5 || v > 10 {
			t.Fatalf("latency %vµs outside Fig 3 scale", v)
		}
	}
}
