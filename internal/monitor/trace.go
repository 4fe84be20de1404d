package monitor

import (
	"sync"
	"time"
)

// The trace ring is the monitor's deep-inspection tier: where the
// workload relation sums a statement's executions, a trace records one
// row per plan operator — rows produced, calls and inclusive time —
// for executions the user explicitly asked to trace (EXPLAIN ANALYZE).
// Traces are bounded by a small ring so an unattended tracing session
// cannot grow memory; ima_spans exposes the ring over SQL.

// traceCapacity is the number of traces kept before the ring wraps.
// Traces are opt-in and operator counts are small, so a short ring
// suffices for "what did my last few EXPLAIN ANALYZEs do".
const traceCapacity = 128

// TraceSpan is the record of one plan operator within a trace, in
// pre-order (parents before children, as Plan.String renders).
type TraceSpan struct {
	Op        string  // operator kind (SeqScan, HashJoin, ...)
	Detail    string  // operator-specific detail (table, index, ...)
	Depth     int     // depth in the plan tree; root is 0
	EstRows   float64 // optimizer cardinality estimate
	Rows      int64   // rows the operator actually produced
	Nanos     int64   // inclusive wall time inside the operator
	SelfNanos int64   // Nanos minus the direct children's inclusive time
	Calls     int64   // see the ima_spans entry of ima/relations.go
}

// Trace is one fully traced statement execution.
type Trace struct {
	Seq   uint64 // monotonic trace sequence, for stable ordering
	Hash  uint64 // statement hash, joins against ima_statements
	Text  string
	Start time.Time
	Wall  time.Duration
	Rows  int64
	Spans []TraceSpan
}

// traceRing is mutex-guarded: traces are recorded at most once per
// EXPLAIN ANALYZE, never on the regular hot path.
type traceRing struct {
	mu   sync.Mutex
	ring []Trace
	pos  int
	n    int
	seq  uint64
}

func (r *traceRing) init(capacity int) {
	r.ring = make([]Trace, capacity)
}

// RecordTrace appends one trace to the ring, overwriting the oldest
// when full, and returns its sequence number.
func (m *Monitor) RecordTrace(t Trace) uint64 {
	if m == nil || !m.enabled.Load() {
		return 0
	}
	r := &m.traces
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	t.Seq = r.seq
	r.ring[r.pos] = t
	r.pos = (r.pos + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
	return t.Seq
}

// SnapshotTraces returns the buffered traces, oldest first. Span slices
// are shared with the ring and must be treated as read-only.
func (m *Monitor) SnapshotTraces() []Trace {
	r := &m.traces
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Trace, 0, r.n)
	start := r.pos - r.n
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// TraceCount returns the number of traces currently buffered.
func (m *Monitor) TraceCount() int {
	r := &m.traces
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}
