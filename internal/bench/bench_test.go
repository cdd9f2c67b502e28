package bench

import (
	"strings"
	"testing"
)

// TestExperimentString pins the rendering byte for byte: a key column, each
// numeric format the experiments use, a "-" placeholder in a numeric column
// and a header holding "µs". Widths are counted in bytes and padding in
// runes, so columns holding "µ", "×" or "↔" are over-padded; the experiments'
// output has always been laid out that way.
func TestExperimentString(t *testing.T) {
	e := &Experiment{
		ID:    "x",
		Title: "golden",
		Cols: []Col{keyCol("n", "%.0f"), numCol("lat µs", "%.1f"), numCol("gain", "%+.1f%%"),
			numCol("util", "%.0f%%"), numCol("scale", "%.2fx"), numCol("speed", "%.2f×host"), {Name: "label"}},
		Notes: []string{"a note"},
	}
	e.add(4, 12.345, 14.04, 93.4, 1.0, 0.35, "host ↔ host")
	e.add(16, "-", -3.96, 100.0, 2.92, 1.0, "quorum W=2")
	want := strings.Join([]string{
		"== x — golden ==",
		"n   lat µs   gain    util  scale  speed       label        ",
		"4   12.3     +14.0%  93%   1.00x  0.35×host   host ↔ host  ",
		"16  -        -4.0%   100%  2.92x  1.00×host   quorum W=2   ",
		"note: a note",
		"",
	}, "\n")
	if got := e.String(); got != want {
		t.Fatalf("rendering differs:\n got %q\nwant %q", got, want)
	}
	if v := e.Value("lat µs", "4"); v != 12.345 {
		t.Fatalf("Value = %v, want the cell at full precision, 12.345", v)
	}
	if key := e.RowKey(1); len(key) != 1 || key[0] != "16" {
		t.Fatalf("RowKey(1) = %q", key)
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
	k1, k4 := e.Value("skv kops/s", "1", "1"), e.Value("skv kops/s", "4", "1")
	if k1 <= 0 || k4 <= k1 {
		t.Fatalf("4 shards (%v kops/s) not faster than 1 (%v kops/s)", k4, k1)
	}
	// The tentpole: routing listeners clear the dispatch-core ceiling.
	k4l2 := e.Value("skv kops/s", "4", "2")
	if k4l2 <= k4 {
		t.Fatalf("routing plane bought nothing: %v kops/s at 4 shards ×2 listeners vs %v at ×1", k4l2, k4)
	}
	// And the dispatch core is demoted to a thin merge stage.
	if du, du1 := e.Value("dispatch util", "4", "2"), e.Value("dispatch util", "4", "1"); du >= du1 {
		t.Fatalf("dispatch util did not drop: %v%% at ×2 listeners vs %v%% at ×1", du, du1)
	}
	// Per-caller WAIT: the probes must never trip the global barrier path.
	for i := range e.Rows {
		key := e.RowKey(i)
		if b := e.Value("wait barriers", key...); b != 0 {
			t.Fatalf("WAIT probes fenced the pipeline at shards, listeners = %v: %v barriers", key, b)
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
	n1, n4 := e.Value("nic tput", "1", "8"), e.Value("nic tput", "4", "8")
	if n1 <= 0 || n4 <= n1 {
		t.Fatalf("NIC reads at 4 shards (%v kops/s) not faster than 1 (%v kops/s)", n4, n1)
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
	host := e.Value("tput kops/s", "8", "host", "off")
	nic := e.Value("tput kops/s", "8", "nic", "off")
	tracked := e.Value("tput kops/s", "8", "host", "on")
	if host <= 0 || nic <= 0 {
		t.Fatalf("untracked reads cleared nothing: host %v, nic %v kops/s", host, nic)
	}
	if tracked <= nic {
		t.Fatalf("tracked GETs (%v kops/s) did not beat NIC-served reads (%v kops/s)", tracked, nic)
	}
	if tracked <= host {
		t.Fatalf("tracked GETs (%v kops/s) did not beat host-served reads (%v kops/s)", tracked, host)
	}
	if hr := e.Value("hit rate", "8", "host", "on"); hr <= 0 {
		t.Fatalf("tracked hit rate = %v%%", hr)
	}
}

func TestFig3RunsAndPreservesOrdering(t *testing.T) {
	e := Fig3()
	if e == nil || len(e.Rows) != 3 {
		t.Fatalf("fig3 rows: %+v", e)
	}
	hostHost := e.Value("64B", "host ↔ host")
	remoteNIC := e.Value("64B", "remote host → SmartNIC")
	localNIC := e.Value("64B", "local host → SmartNIC")
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
