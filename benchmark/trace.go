package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// pass or request share Op. A span with Replay set is the layer below
// called directly on the same input right after its parent returned: its
// duration stands for the part of the parent's interval spent in that
// layer, because nothing inside the program records spans yet.
type span struct {
	ID       int               `json:"id"`
	Parent   int               `json:"parent"` // 0 for a root
	Name     string            `json:"name"`
	Layer    string            `json:"layer"`
	Workload string            `json:"workload"`
	Op       int               `json:"op"`
	Replay   bool              `json:"replay,omitempty"`
	StartNS  int64             `json:"start_ns"`
	EndNS    int64             `json:"end_ns"`
	Counters map[string]uint64 `json:"counters,omitempty"` // counter deltas over the span
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run pays nothing.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{t0: time.Now(), workload: workload} }

// start opens a span and returns its ID (0 when tracing is off).
func (t *tracer) start(name, layer string, parent, op int, replay bool) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer,
		Workload: t.workload, Op: op, Replay: replay, StartNS: now,
	})
	return len(t.spans)
}

// end closes a span, attaching the counter deltas measured over it.
func (t *tracer) end(id int, counters map[string]uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = now
	t.spans[id-1].Counters = counters
}

// selfSeconds returns, for every span name, each span's duration minus
// the interval its child spans cover, in seconds, one value per span.
func (t *tracer) selfSeconds() map[string][]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS-child[s.ID])/1e9)
	}
	return out
}

// timed runs call inside a span and returns the span's ID and its
// duration in seconds.
func (t *tracer) timed(name, layer string, parent, op int, replay bool, call func() error) (int, float64, error) {
	id := t.start(name, layer, parent, op, replay)
	t0 := time.Now()
	err := call()
	d := time.Since(t0).Seconds()
	t.end(id, nil)
	return id, d, err
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Host       hostBlock                     `json:"host"`
	SelfByName map[string]map[string]float64 `json:"self_seconds_by_workload_and_span"` // median self time
	Spans      []span                        `json:"spans"`
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
