package cluster

import (
	"testing"
	"time"

	"skv/internal/consistency"
)

// TestAckLossAsyncLosesAckedWrites pins the motivation for the consistency
// plane: with async (legacy) acknowledgments and a batched replication
// stream, a master crash destroys writes the cluster already acknowledged —
// the replies outran the replication. The probe must observe at least one
// lost acked write, or the quorum experiment has nothing to fix and the
// headline comparison is vacuous.
func TestAckLossAsyncLosesAckedWrites(t *testing.T) {
	res, err := RunAckLossProbe(AckLossSpec{Level: consistency.Async, Seed: 7})
	if err != nil {
		t.Fatalf("probe harness failed: %v\ntrace:\n%s", err, res.H.TraceString())
	}
	if res.WritesAcked == 0 {
		t.Fatal("no writes acknowledged before the crash")
	}
	if len(res.Lost) == 0 {
		t.Fatalf("async lost no acked writes (%d acked): the batching window never opened, probe lost its bite\ntrace:\n%s",
			res.WritesAcked, res.H.TraceString())
	}
	t.Logf("async: %d acked, %d lost (first: %s)", res.WritesAcked, len(res.Lost), res.Lost[0])
}

// TestAckLossQuorumLosesNothing is the headline: same topology, same crash,
// same batching window — but quorum (W=2) writes are only acknowledged once
// two slaves hold them, and the NIC promotes the max-offset survivor. Every
// acknowledged write must be on the promoted master.
func TestAckLossQuorumLosesNothing(t *testing.T) {
	res, err := RunAckLossProbe(AckLossSpec{Level: consistency.Quorum, W: 2, Seed: 7})
	if err != nil {
		t.Fatalf("probe harness failed: %v\ntrace:\n%s", err, res.H.TraceString())
	}
	if res.WritesAcked == 0 {
		t.Fatal("no writes acknowledged before the crash")
	}
	for _, l := range res.Lost {
		t.Errorf("quorum lost an acked write: %s", l)
	}
	t.Logf("quorum: %d acked, %d lost, promoted %s", res.WritesAcked, len(res.Lost), res.Promoted)
}

// TestAckLossAllLosesNothing runs the strictest level: every attached slave
// must hold a write before its reply fires, so the audit is clean no matter
// which survivor the NIC promotes.
func TestAckLossAllLosesNothing(t *testing.T) {
	res, err := RunAckLossProbe(AckLossSpec{Level: consistency.All, Seed: 7})
	if err != nil {
		t.Fatalf("probe harness failed: %v\ntrace:\n%s", err, res.H.TraceString())
	}
	for _, l := range res.Lost {
		t.Errorf("all lost an acked write: %s", l)
	}
}

// TestAckLossDeterminism reruns the async and quorum probes and requires
// byte-identical traces and metrics — the probe is a chaos scenario and
// inherits the harness's determinism contract.
func TestAckLossDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name  string
		level consistency.Level
		w     int
	}{
		{"async", consistency.Async, 0},
		{"quorum", consistency.Quorum, 2},
	} {
		spec := AckLossSpec{Level: tc.level, W: tc.w, Seed: 7}
		r1, err1 := RunAckLossProbe(spec)
		r2, err2 := RunAckLossProbe(spec)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: probe failed: %v / %v", tc.name, err1, err2)
		}
		if a, b := r1.H.TraceString(), r2.H.TraceString(); a != b {
			t.Fatalf("%s: traces diverged:\nrun1:\n%s\nrun2:\n%s", tc.name, a, b)
		}
		if a, b := r1.C.SnapshotsString(), r2.C.SnapshotsString(); a != b {
			t.Fatalf("%s: metric snapshots diverged", tc.name)
		}
	}
}

// TestAckLossSweep widens the probe from one crash to a grid: five seeds ×
// what the replication pipeline had just done when the master died × batch
// size × level. Quorum and all must lose nothing in any cell — a gate rides
// the batch that holds its write, so a reply can only have fired for bytes
// enough slaves reported — including with the slave a first-valid failover
// would promote cut off before the crash; async at the probe's own batch
// size must still lose acknowledged writes on every seed, or the grid has no
// bite.
func TestAckLossSweep(t *testing.T) {
	start := time.Now()
	levels := []AckLossSpec{
		{Level: consistency.Quorum, W: 1},
		{Level: consistency.Quorum, W: 2},
		{Level: consistency.All},
	}
	cells := 0
	run := func(spec AckLossSpec) *AckLossResult {
		t.Helper()
		cells++
		res, err := RunAckLossProbe(spec)
		if err != nil {
			t.Fatalf("%+v: probe harness failed: %v\ntrace:\n%s", spec, err, res.H.TraceString())
		}
		if spec.Level != consistency.Async {
			for _, l := range res.Lost {
				t.Errorf("%+v: lost an acked write of %d: %s", spec, res.WritesAcked, l)
			}
		}
		return res
	}
	for seed := int64(1); seed <= 5; seed++ {
		for _, crash := range []CrashInstant{CrashMidBatch, CrashAfterFlush, CrashAfterRelease} {
			for _, batch := range []int{1, 8, 64} {
				for _, spec := range levels {
					spec.Seed, spec.Crash, spec.Batch = seed, crash, batch
					run(spec)
				}
			}
		}
		if res := run(AckLossSpec{Level: consistency.Async, Seed: seed, Batch: 64, Crash: CrashMidBatch}); len(res.Lost) == 0 {
			t.Errorf("seed %d: async at batch 64 lost none of %d acked writes", seed, res.WritesAcked)
		}
	}
	for _, spec := range levels {
		spec.Seed, spec.Crash, spec.Batch, spec.Partition = 3, CrashAfterRelease, 8, true
		if res := run(spec); res.Promoted == res.C.SlaveMachines[0].Host.Name() {
			t.Errorf("%+v: promoted %s, the slave cut off before the crash", spec, res.Promoted)
		}
	}
	t.Logf("%d cells in %.1fs", cells, time.Since(start).Seconds())
}
