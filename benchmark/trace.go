package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed phase recorded from outside the program: around the
// benchmark's calls into each layer. Spans of one workload share its name
// as the trace id; Parent is the id of the span that caused this one
// (0 = the root).
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Trace    string             `json:"trace"`
	Name     string             `json:"name"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so phases read the same either way.
type tracer struct {
	workload string
	origin   time.Time
	spans    []*span
	stack    []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) *span {
	if t == nil {
		return nil
	}
	parent := 0
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	s := &span{ID: len(t.spans) + 1, Parent: parent, Trace: t.workload, Name: name,
		StartNs: time.Since(t.origin).Nanoseconds()}
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, s.ID)
	return s
}

// end closes s, attaching the counts taken at its boundary.
func (t *tracer) end(s *span, counters map[string]float64) {
	if t == nil {
		return
	}
	s.EndNs = time.Since(t.origin).Nanoseconds()
	s.Counters = counters
	t.stack = t.stack[:len(t.stack)-1]
}

// seconds reports the duration of the first span with the given name.
func (t *tracer) seconds(name string) float64 {
	for _, s := range t.spans {
		if s.Name == name {
			return float64(s.EndNs-s.StartNs) / 1e9
		}
	}
	return 0
}

func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", t.workload))
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
