package cluster

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateGoldens regenerates the pinned chaos traces instead of comparing
// against them. Only rerun it when a change is *supposed* to alter the
// event schedule or the bytes on the replication stream; say in the change
// which columns moved and why.
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/chaos_trace_*.golden from the current build")

// TestChaosGoldenTraces pins every canned chaos scenario's trace, byte for
// byte: timestamps, failure-detector state, roles and replication offsets
// at every scripted event. The scenarios run the default deployment (one
// group, async, batch 1, unsharded), so a refactor of any plane they cross
// must reproduce the same schedule, not merely a deterministic one. Last
// re-baselined when the single-master builder and the one-command 'R'
// offload frame were folded into the general paths: every line gained the
// g0{...} group wrapper, and moff=/offs= shifted with the 8-byte command
// count each offload request now carries; no other column moved.
// master-restart-split-brain alone was re-baselined again when the plain
// client was deleted: the one client re-dials the restarted master, so the
// load resumes and moff=/offs= grow after the restart (and slave2's offs at
// the crash instant reads one command earlier, the client's first think
// beat now being charged before its dial); no other column moved.
func TestChaosGoldenTraces(t *testing.T) {
	for _, s := range ChaosScenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			_, h, err := RunScenario(s)
			if err != nil {
				t.Fatalf("scenario failed: %v\ntrace:\n%s", err, h.TraceString())
			}
			path := filepath.Join("testdata", "chaos_trace_"+s.Name+".golden")
			got := h.TraceString()
			if *updateGoldens {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run go test -run TestChaosGoldenTraces -args -update-goldens): %v", err)
			}
			if got != string(want) {
				t.Fatalf("trace diverged from golden %s:\n--- golden:\n%s--- got:\n%s", path, want, got)
			}
		})
	}
}
