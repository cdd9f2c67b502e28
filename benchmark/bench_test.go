package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload once with 5 ms windows, traced, on a seed
// no baseline was taken with, and holds the report to the contract: every
// end-to-end metric present, well named, finite, non-zero and with its
// unit; every per-layer metric present and finite; outputs verified.
func TestSmoke(t *testing.T) {
	o := options{seed: 424243, reps: 1, smoke: true, trace: true, budget: time.Second, outDir: t.TempDir()}
	for _, w := range workloads() {
		res := runWorkload(w, o)
		if !res.correct || res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", w.name, res.correct, res.attempted, res.failed, res.problems)
		}
		check := func(defs []metricDef, vals map[string]sample, nonZero bool) {
			for _, d := range defs {
				s, ok := vals[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", w.name, d.Name)
				case !metricName.MatchString(d.Name) || d.Unit == "":
					t.Errorf("%s: metric %q (unit %q) is badly named", w.name, d.Name, d.Unit)
				case math.IsNaN(s.V) || math.IsInf(s.V, 0) || (nonZero && s.V <= 0):
					t.Errorf("%s: metric %s = %v", w.name, d.Name, s.V)
				}
			}
		}
		check(endToEnd, res.e2e, true)
		check(perLayer, res.layers, false)
		for _, trace := range []bool{false, true} {
			o := o
			o.trace = trace
			var line struct {
				Correct   *bool
				Attempted *uint64
				Failed    *uint64
				Metrics   map[string]struct {
					Value *float64
					Unit  *string
				}
			}
			if err := json.Unmarshal([]byte(jsonLine(res, o)), &line); err != nil {
				t.Fatalf("%s: result line does not parse: %v", w.name, err)
			}
			want := len(endToEnd)
			if trace {
				want = len(perLayer)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != want {
				t.Errorf("%s: result line (trace=%v) lacks keys or metrics: %d of %d metrics", w.name, trace, len(line.Metrics), want)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in metrics.go in
// step: same workloads, same metrics, same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q (or their reasons differ)", i, doc.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, metrics.go %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (entry{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
