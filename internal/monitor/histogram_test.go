package monitor

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestLatencyBucketBounds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11},
		{time.Duration(1) << 50, NumLatencyBuckets - 1},
	}
	for _, c := range cases {
		if got := latencyBucket(c.d); got != c.want {
			t.Errorf("latencyBucket(%d) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every bucket's bounds must cover exactly the durations mapped to
	// it (the last bucket also absorbs the clamped tail).
	for b := 0; b < NumLatencyBuckets-1; b++ {
		lo, hi := LatencyBucketBounds(b)
		if lo > 0 && latencyBucket(lo) != b {
			t.Errorf("bucket %d: lo %d maps to %d", b, lo, latencyBucket(lo))
		}
		if latencyBucket(hi-1) != b {
			t.Errorf("bucket %d: hi-1 %d maps to %d", b, hi-1, latencyBucket(hi-1))
		}
		if latencyBucket(hi) != b+1 {
			t.Errorf("bucket %d: hi %d maps to %d, want %d", b, hi, latencyBucket(hi), b+1)
		}
	}
}

func TestLatencyCountsQuantile(t *testing.T) {
	var c LatencyCounts
	if got := c.Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	// 90 samples in bucket 10 ([512, 1024)), 10 in bucket 20.
	c[10] = 90
	c[20] = 10
	if got := c.Quantile(0.5); got != 1024 {
		t.Errorf("p50 = %v, want 1024ns", got)
	}
	_, hi20 := LatencyBucketBounds(20)
	if got := c.Quantile(0.99); got != hi20 {
		t.Errorf("p99 = %v, want %v", got, hi20)
	}
	if got := c.Total(); got != 100 {
		t.Errorf("Total = %d, want 100", got)
	}
}

// TestFinishPopulatesHistograms checks the core invariants: the global
// wall histogram total equals the number of executions, and each
// statement's histogram total equals its frequency exactly (they are
// updated in the same critical section).
func TestFinishPopulatesHistograms(t *testing.T) {
	m := New(Config{StatementCapacity: 100})
	const perStmt = 7
	stmts := []string{"SELECT 1", "SELECT 2", "SELECT 3"}
	for _, text := range stmts {
		for i := 0; i < perStmt; i++ {
			h := m.StartStatement(text)
			h.Parsed("SELECT", nil)
			h.Optimized(1, 1, 1, nil, nil, time.Microsecond)
			h.Finish(1, 0, 1, nil)
		}
	}
	wall, opt := m.SnapshotLatency()
	wantTotal := int64(len(stmts) * perStmt)
	if got := wall.Total(); got != wantTotal {
		t.Errorf("wall histogram total = %d, want %d", got, wantTotal)
	}
	if got := opt.Total(); got != wantTotal {
		t.Errorf("opt histogram total = %d, want %d", got, wantTotal)
	}
	wallSum, optSum := m.LatencySums()
	if wallSum <= 0 {
		t.Errorf("wall sum = %v, want > 0", wallSum)
	}
	if optSum != time.Duration(wantTotal)*time.Microsecond {
		t.Errorf("opt sum = %v, want %v", optSum, time.Duration(wantTotal)*time.Microsecond)
	}
	for _, si := range m.SnapshotStatements() {
		if got := si.Lat.Total(); got != si.Frequency {
			t.Errorf("stmt %q: histogram total %d != frequency %d", si.Text, got, si.Frequency)
		}
	}
}

// TestHistogramsConcurrent hammers the hot path from many goroutines
// and checks the merged totals; run under -race it also proves the
// lock-free counters are sound.
func TestHistogramsConcurrent(t *testing.T) {
	m := New(Config{StatementCapacity: 64})
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h := m.StartStatement(fmt.Sprintf("SELECT %d", i%10))
				h.Parsed("SELECT", nil)
				h.Finish(1, 0, 1, nil)
				if i%100 == 0 {
					m.SnapshotLatency() // concurrent lock-free reads
				}
			}
		}(g)
	}
	wg.Wait()
	wall, _ := m.SnapshotLatency()
	if got, want := wall.Total(), int64(goroutines*perG); got != want {
		t.Fatalf("wall total = %d, want %d", got, want)
	}
	var freq, lat int64
	for _, si := range m.SnapshotStatements() {
		freq += si.Frequency
		lat += si.Lat.Total()
	}
	if freq != lat {
		t.Fatalf("Σ frequency %d != Σ per-statement histogram %d", freq, lat)
	}
}

func TestTraceRing(t *testing.T) {
	m := New(Config{})
	m.traces.init(4)
	for i := 0; i < 6; i++ {
		seq := m.RecordTrace(Trace{
			Hash: uint64(i),
			Text: fmt.Sprintf("SELECT %d", i),
			Wall: time.Duration(i) * time.Millisecond,
			Spans: []TraceSpan{
				{Op: "SeqScan", Rows: int64(i), Depth: 0},
			},
		})
		if seq != uint64(i+1) {
			t.Fatalf("RecordTrace seq = %d, want %d", seq, i+1)
		}
	}
	traces := m.SnapshotTraces()
	if len(traces) != 4 {
		t.Fatalf("got %d traces, want 4 (ring capacity)", len(traces))
	}
	// Oldest two evicted; remaining are 2..5 oldest-first.
	for i, tr := range traces {
		if want := uint64(i + 3); tr.Seq != want {
			t.Errorf("trace %d: seq %d, want %d", i, tr.Seq, want)
		}
	}
	if got := m.TraceCount(); got != 4 {
		t.Errorf("TraceCount = %d, want 4", got)
	}
	// Disabled monitor records nothing.
	m.SetEnabled(false)
	if seq := m.RecordTrace(Trace{}); seq != 0 {
		t.Errorf("disabled RecordTrace seq = %d, want 0", seq)
	}
	if got := m.TraceCount(); got != 4 {
		t.Errorf("TraceCount after disabled record = %d, want 4", got)
	}
}
