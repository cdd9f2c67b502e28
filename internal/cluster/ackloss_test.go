package cluster

import (
	"fmt"
	"testing"

	"skv/internal/consistency"
)

// runAckLoss runs one cell of the probe; a harness failure (no failover, an
// error reply) is fatal, lost writes are the caller's to judge.
func runAckLoss(t *testing.T, spec AckLossSpec) (*Cluster, *AckLossResult) {
	t.Helper()
	s, res := AckLossScenario(spec)
	c, h, err := RunScenario(s)
	if err != nil {
		t.Fatalf("%+v: probe harness failed: %v\ntrace:\n%s", spec, err, h.TraceString())
	}
	return c, res
}

// TestAckLossAsyncLosesAckedWrites pins the motivation for the consistency
// plane: with async (legacy) acknowledgments and a batched replication
// stream, a master crash destroys writes the cluster already acknowledged —
// the replies outran the replication. The probe must observe at least one
// lost acked write, or the quorum experiment has nothing to fix and the
// headline comparison is vacuous.
func TestAckLossAsyncLosesAckedWrites(t *testing.T) {
	_, res := runAckLoss(t, AckLossSpec{Level: consistency.Async, Seed: 7})
	if len(res.Lost) == 0 {
		t.Fatalf("async lost no acked writes (%d acked): the batching window never opened, probe lost its bite", res.L.WritesAcked)
	}
	t.Logf("async: %d acked, %d lost (first: %s)", res.L.WritesAcked, len(res.Lost), res.Lost[0])
}

// TestAckLossQuorumLosesNothing is the headline: same topology, same crash,
// same batching window — but quorum (W=2) writes are only acknowledged once
// two slaves hold them, and the NIC promotes the max-offset survivor. Every
// acknowledged write must be on the promoted master.
func TestAckLossQuorumLosesNothing(t *testing.T) {
	_, res := runAckLoss(t, AckLossSpec{Level: consistency.Quorum, W: 2, Seed: 7})
	for _, l := range res.Lost {
		t.Errorf("quorum lost an acked write: %s", l)
	}
	t.Logf("quorum: %d acked, %d lost, promoted %s", res.L.WritesAcked, len(res.Lost), res.Promoted)
}

// TestAckLossAllLosesNothing runs the strictest level: every attached slave
// must hold a write before its reply fires, so the audit is clean no matter
// which survivor the NIC promotes.
func TestAckLossAllLosesNothing(t *testing.T) {
	_, res := runAckLoss(t, AckLossSpec{Level: consistency.All, Seed: 7})
	for _, l := range res.Lost {
		t.Errorf("all lost an acked write: %s", l)
	}
}

// TestAckLossSweep widens the probe from one crash to a grid: five seeds ×
// what the replication pipeline had just done when the master died × batch
// size × level. Quorum and all must lose nothing in any cell — a gate rides
// the batch that holds its write, so a reply can only have fired for bytes
// enough slaves reported — including with the slave a first-valid failover
// would promote cut off before the crash; async at the probe's own batch
// size must still lose acknowledged writes on every seed, or the grid has no
// bite. Every cell owns its cluster and engine, so the cells run in parallel.
func TestAckLossSweep(t *testing.T) {
	levels := []AckLossSpec{
		{Level: consistency.Quorum, W: 1},
		{Level: consistency.Quorum, W: 2},
		{Level: consistency.All},
	}
	var cells []AckLossSpec
	for seed := int64(1); seed <= 5; seed++ {
		for _, crash := range []CrashInstant{CrashMidBatch, CrashAfterFlush, CrashAfterRelease} {
			for _, batch := range []int{1, 8, 64} {
				for _, spec := range levels {
					spec.Seed, spec.Crash, spec.Batch = seed, crash, batch
					cells = append(cells, spec)
				}
			}
		}
		cells = append(cells, AckLossSpec{Level: consistency.Async, Seed: seed, Batch: 64, Crash: CrashMidBatch})
	}
	for _, spec := range levels {
		spec.Seed, spec.Crash, spec.Batch, spec.Partition = 3, CrashAfterRelease, 8, true
		cells = append(cells, spec)
	}
	for _, spec := range cells {
		name := fmt.Sprintf("seed%d/%s/batch%d/%s-w%d", spec.Seed, spec.Crash, spec.Batch, spec.Level, spec.W)
		if spec.Partition {
			name += "/partition"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, res := runAckLoss(t, spec)
			t.Logf("acked=%d lost=%d promoted=%s", res.L.WritesAcked, len(res.Lost), res.Promoted)
			if spec.Level == consistency.Async {
				if len(res.Lost) == 0 {
					t.Errorf("async at batch %d lost none of %d acked writes", spec.Batch, res.L.WritesAcked)
				}
				return
			}
			for _, l := range res.Lost {
				t.Errorf("lost an acked write of %d: %s", res.L.WritesAcked, l)
			}
			if spec.Partition && res.Promoted == c.Groups[0].SlaveMachines[0].Host.Name() {
				t.Errorf("promoted %s, the slave cut off before the crash", res.Promoted)
			}
		})
	}
}
