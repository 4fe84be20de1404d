package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one call from the driver into a layer's public function.
// Times are nanoseconds since the tracer started. Spans are recorded
// from the benchmark's own files only; nothing inside internal/ is
// instrumented.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 = no parent
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Stmt   int64  `json:"stmt,omitempty"` // statement id shared by the spans of one statement
}

// counterSample is the system's counter structs read at a phase
// boundary, so ratios can be taken where the work happened.
type counterSample struct {
	At     string             `json:"at"`
	TimeNs int64              `json:"time_ns"`
	Values map[string]float64 `json:"values"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so the untraced run executes the same driver code.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	counters []counterSample
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent int32, stmt int64) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, Stmt: stmt})
	return id
}

func (t *tracer) end(id int32) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

func (t *tracer) sample(at string, values map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters = append(t.counters, counterSample{At: at, TimeNs: int64(time.Since(t.t0)), Values: values})
}

// selfTimes returns, per span name, the summed duration of its spans
// minus the part their child spans cover, and the span count.
func (t *tracer) selfTimes() (self map[string]time.Duration, count map[string]int) {
	self, count = map[string]time.Duration{}, map[string]int{}
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	for _, s := range t.spans {
		d := s.End - s.Start - child[s.ID]
		if d < 0 {
			d = 0
		}
		self[s.Name] += time.Duration(d)
		count[s.Name]++
	}
	return
}

// traceFile is what -trace 1 leaves in bench/out.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	WallNs   int64              `json:"wall_ns"`
	SelfMs   map[string]float64 `json:"self_ms"` // per span name
	Counters []counterSample    `json:"counters"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	self, _ := t.selfTimes()
	tf := traceFile{Workload: workload, Seed: seed, WallNs: int64(time.Since(t.t0)), SelfMs: map[string]float64{}}
	for name, d := range self {
		tf.SelfMs[name] = ms(d)
	}
	t.mu.Lock()
	tf.Spans, tf.Counters = t.spans, t.counters
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
