package monitor

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func record(m *Monitor, text string, tables []string) {
	h := m.StartStatement(text)
	h.Parsed("SELECT", tables)
	h.Optimized(10, 5, 100, []string{"t.a"}, []string{"ix_a"}, time.Microsecond)
	h.Finish(120, 7, 100, nil)
}

func TestBasicRecording(t *testing.T) {
	m := New(Config{})
	record(m, "SELECT a FROM t WHERE a = 1", []string{"t"})
	record(m, "SELECT a FROM t WHERE a = 1", []string{"t"})
	record(m, "SELECT b FROM u", []string{"u"})

	s := m.Snapshot()
	if len(s.Statements) != 2 {
		t.Fatalf("statements = %d", len(s.Statements))
	}
	var freq1 int64
	for _, si := range s.Statements {
		if si.Text == "SELECT a FROM t WHERE a = 1" {
			freq1 = si.Frequency
			if si.Kind != "SELECT" {
				t.Errorf("kind = %q", si.Kind)
			}
		}
	}
	if freq1 != 2 {
		t.Errorf("frequency = %d", freq1)
	}
	if len(s.Workload) != 2 {
		t.Fatalf("workload rows = %d, want one per statement", len(s.Workload))
	}
	w := s.Workload[1]
	if w.Executions != 1 || w.ExecCPU != 120 || w.ExecIO != 7 || w.EstCPU != 10 || w.EstIO != 5 || w.Rows != 100 {
		t.Errorf("workload entry: %+v", w)
	}
	if w.Wall <= 0 || w.MonNanos <= 0 {
		t.Errorf("timings not recorded: wall=%v mon=%v", w.Wall, w.MonNanos)
	}
	if m.TotalStatements() != 3 {
		t.Errorf("TotalStatements = %d", m.TotalStatements())
	}
	if s.TableFreq["t"] != 2 || s.TableFreq["u"] != 1 {
		t.Errorf("table freq: %v", s.TableFreq)
	}
	if s.AttrFreq["t.a"] != 3 {
		t.Errorf("attr freq: %v", s.AttrFreq)
	}
	if s.IndexFreq["ix_a"] != 3 {
		t.Errorf("index freq: %v", s.IndexFreq)
	}
}

func TestReferencesRecordedOncePerStatement(t *testing.T) {
	m := New(Config{})
	for i := 0; i < 5; i++ {
		record(m, "SELECT a FROM t", []string{"t"})
	}
	s := m.Snapshot()
	var tableRefs int
	for _, r := range s.References {
		if r.Type == ObjTable && r.Name == "t" {
			tableRefs++
		}
	}
	if tableRefs != 1 {
		t.Errorf("table reference rows = %d, want 1", tableRefs)
	}
}

func TestStatementRingEviction(t *testing.T) {
	m := New(Config{StatementCapacity: 10})
	for i := 0; i < 25; i++ {
		record(m, fmt.Sprintf("SELECT %d FROM t", i), []string{"t"})
	}
	if got := m.StatementCount(); got != 10 {
		t.Fatalf("StatementCount = %d, want 10", got)
	}
	s := m.Snapshot()
	if len(s.Statements) != 10 {
		t.Fatalf("snapshot statements = %d", len(s.Statements))
	}
	// The survivors must be the most recent 10.
	for _, si := range s.Statements {
		var n int
		fmt.Sscanf(si.Text, "SELECT %d FROM t", &n)
		if n < 15 {
			t.Errorf("old statement %q survived eviction", si.Text)
		}
	}
	if m.TotalStatements() != 25 {
		t.Errorf("TotalStatements = %d (must survive eviction)", m.TotalStatements())
	}
}

// drain reads the workload relation and lands all of it, as a poll
// whose append succeeds does.
func drain(m *Monitor) []WorkloadEntry {
	w := m.SnapshotWorkload()
	m.Landed(w)
	return w
}

// Slow-path executions of one statement add up in its entry: one row,
// however many ran, with the estimates summed too.
func TestWorkloadOneRowPerShape(t *testing.T) {
	m := New(Config{})
	for i := 0; i < 20; i++ {
		record(m, "SELECT 1 FROM t", []string{"t"})
	}
	s := m.Snapshot()
	if len(s.Workload) != 1 {
		t.Fatalf("workload = %d rows, want 1", len(s.Workload))
	}
	if w := s.Workload[0]; w.Executions != 20 || w.ExecCPU != 20*120 || w.ExecIO != 20*7 || w.Rows != 20*100 ||
		w.EstCPU != 20*10 || w.EstIO != 20*5 || w.EstRows != 20*100 || w.OptTime != 20*time.Microsecond ||
		w.Wall <= 0 || w.MonNanos <= 0 || w.Start.IsZero() {
		t.Errorf("row %+v", w)
	}
}

func TestDrainWorkload(t *testing.T) {
	m := New(Config{})
	for i := 0; i < 5; i++ {
		record(m, "SELECT 1 FROM t", []string{"t"})
	}
	record(m, "SELECT 2 FROM t", []string{"t"})
	got := drain(m)
	if len(got) != 2 || got[0].Executions != 5 || got[1].Executions != 1 {
		t.Fatalf("drained %+v", got)
	}
	if len(drain(m)) != 0 {
		t.Error("second drain returned data")
	}
	record(m, "SELECT 1 FROM t", []string{"t"})
	if got := drain(m); len(got) != 1 || got[0].Executions != 1 {
		t.Errorf("drain after refill %+v", got)
	}
}

func TestDisabledMonitorIsNoop(t *testing.T) {
	m := New(Config{})
	m.SetEnabled(false)
	h := m.StartStatement("SELECT 1 FROM t")
	// The zero handle (and all methods on it) must be inert.
	h.Parsed("SELECT", []string{"t"})
	h.Optimized(1, 1, 1, nil, nil, 0)
	h.Finish(1, 1, 1, nil)
	if m.TotalStatements() != 0 {
		t.Error("disabled monitor recorded data")
	}

	var nilMon *Monitor
	h2 := nilMon.StartStatement("x")
	h2.Finish(0, 0, 0, nil)
	var nilHandle *Handle
	nilHandle.Parsed("SELECT", nil)
	nilHandle.Finish(0, 0, 0, nil)
}

func TestErrorFlag(t *testing.T) {
	m := New(Config{})
	h := m.StartStatement("SELECT broken")
	h.Parsed("SELECT", nil)
	h.Finish(0, 0, 0, errors.New("boom"))
	s := m.Snapshot()
	if len(s.Workload) != 1 || s.Workload[0].Errors != 1 {
		t.Errorf("error flag not recorded: %+v", s.Workload)
	}
}

func TestHashStability(t *testing.T) {
	if HashStatement("abc") != HashStatement("abc") {
		t.Error("hash not deterministic")
	}
	if HashStatement("abc") == HashStatement("abd") {
		t.Error("suspicious hash collision")
	}
}

func TestConcurrentRecording(t *testing.T) {
	m := New(Config{StatementCapacity: 50})
	var wg sync.WaitGroup
	const goroutines = 8
	const perG = 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		g := g
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				record(m, fmt.Sprintf("SELECT %d FROM t%d", i%20, g), []string{fmt.Sprintf("t%d", g)})
			}
		}()
	}
	wg.Wait()
	if m.TotalStatements() != goroutines*perG {
		t.Errorf("TotalStatements = %d, want %d", m.TotalStatements(), goroutines*perG)
	}
	s := m.Snapshot()
	var totalFreq int64
	for _, f := range s.TableFreq {
		totalFreq += f
	}
	if totalFreq != goroutines*perG {
		t.Errorf("table frequency sum = %d", totalFreq)
	}
}

func TestMonitorOverheadIsMicrosecondScale(t *testing.T) {
	// Not a benchmark assertion, just a sanity bound: a full sensor
	// cycle must stay well under a millisecond.
	m := New(Config{})
	start := time.Now()
	const n = 1000
	for i := 0; i < n; i++ {
		record(m, "SELECT a FROM t WHERE a = 1", []string{"t"})
	}
	perStmt := time.Since(start) / n
	if perStmt > time.Millisecond {
		t.Errorf("monitor cycle took %v per statement", perStmt)
	}
	if m.TotalMonitorTime() <= 0 {
		t.Error("monitor self-time not accumulated")
	}
}

// Depth counts evicted entries still holding sums, at most the table's
// capacity; drops count the executions of the ones pushed out.
func TestWorkloadDepthAndDropped(t *testing.T) {
	m := newMonitor(4, 2)
	if m.WorkloadDepth() != 0 || m.WorkloadDropped() != 0 {
		t.Fatalf("fresh monitor: depth=%d dropped=%d", m.WorkloadDepth(), m.WorkloadDropped())
	}
	// Statement i runs i+1 times; 10 statements through a table of 4
	// evict 6 entries with sums, 4 of which fit the FIFO.
	for i := 0; i < 10; i++ {
		for j := 0; j <= i; j++ {
			record(m, fmt.Sprintf("SELECT %d FROM t", i), []string{"t"})
		}
	}
	if got := m.WorkloadDepth(); got != 4 {
		t.Errorf("WorkloadDepth = %d, want 4 (the capacity)", got)
	}
	// The first two evicted, statements 0 and 1, were pushed out.
	if got := m.WorkloadDropped(); got != 1+2 {
		t.Errorf("WorkloadDropped = %d, want 3 executions", got)
	}
	var stored int64
	for _, w := range drain(m) {
		stored += w.Executions
	}
	if got := m.WorkloadDepth(); got != 0 || stored+m.WorkloadDropped() != m.TotalStatements() {
		t.Errorf("after drain: depth %d, stored %d + dropped %d != total %d", got, stored, m.WorkloadDropped(), m.TotalStatements())
	}
	// The dropped counter is cumulative, not reset by draining.
	if got := m.WorkloadDropped(); got != 3 {
		t.Errorf("WorkloadDropped after drain = %d, want 3", got)
	}
}
