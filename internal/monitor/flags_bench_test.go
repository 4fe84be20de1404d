package monitor

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sqlparser"
)

// Phase-1 overhead benchmarks and the zero-alloc guard behind the CI
// overhead-regression smoke step. The Call benchmarks run the complete
// record path (StartStatement → Parsed → Optimized → Finish) the way
// the engine drives it; the Parallel16 variant is the acceptance
// number: with the flagger compiled in but nothing flagged, phase 2
// must cost exactly one extra atomic load.

func benchMonitorCall(b *testing.B, par int, flagged bool) {
	m := New(Config{})
	const text = "SELECT a FROM t WHERE a = 1"
	tables := []string{"t"}
	attrs := []string{"t.a"}
	digest := sqlparser.DigestOf(text) // as the engine's prepare hands it over
	if flagged {
		m.Flag(text, FlagReasonManual, true, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				h := m.StartStatement(text)
				h.Parsed("SELECT", tables)
				h.Keyed(digest)
				h.Optimized(10, 5, 100, attrs, nil, time.Microsecond)
				if h.Profiled() {
					h.AddLockWait(100)
					h.AddWaits(1000, 100, 100, 0)
				}
				h.Finish(120, 7, 100, nil)
				h.FlushWaits()
			}
		}()
	}
	wg.Wait()
}

func BenchmarkMonitorCallParallel1(b *testing.B)  { benchMonitorCall(b, 1, false) }
func BenchmarkMonitorCallParallel16(b *testing.B) { benchMonitorCall(b, 16, false) }

// The phase-2-on counterpart, for the EXPERIMENTS.md overhead table.
func BenchmarkMonitorCallFlaggedParallel1(b *testing.B)  { benchMonitorCall(b, 1, true) }
func BenchmarkMonitorCallFlaggedParallel16(b *testing.B) { benchMonitorCall(b, 16, true) }

// benchMonitorCallFraction sweeps the flagged fraction: 16 distinct
// statements round-robin across 16 goroutines, with 0/4/16 of them
// flagged — the EXPERIMENTS.md overhead-vs-coverage curve.
func benchMonitorCallFraction(b *testing.B, flaggedOf16 int) {
	m := New(Config{})
	texts := make([]string, 16)
	digests := make([]uint64, 16)
	for i := range texts {
		texts[i] = "SELECT a FROM t WHERE a = " + string(rune('a'+i))
		digests[i] = sqlparser.DigestOf(texts[i])
		if i < flaggedOf16 {
			m.Flag(texts[i], FlagReasonManual, true, 0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := next.Add(1)
				if n > int64(b.N) {
					return
				}
				h := m.StartStatement(texts[n%16])
				h.Parsed("SELECT", nil)
				h.Keyed(digests[n%16])
				if h.Profiled() {
					h.AddLockWait(100)
					h.AddWaits(1000, 100, 100, 0)
				}
				h.Finish(120, 7, 100, nil)
				h.FlushWaits()
			}
		}()
	}
	wg.Wait()
}

func BenchmarkMonitorCallFlagged0of16(b *testing.B)  { benchMonitorCallFraction(b, 0) }
func BenchmarkMonitorCallFlagged4of16(b *testing.B)  { benchMonitorCallFraction(b, 4) }
func BenchmarkMonitorCallFlagged16of16(b *testing.B) { benchMonitorCallFraction(b, 16) }

// TestPhase1RecordPathZeroAlloc asserts the idle-flagger record path
// allocates nothing per execution — the PR 1 envelope the adaptive
// layer must not disturb. CI runs it as the overhead-regression smoke
// step next to the benchmark above.
func TestPhase1RecordPathZeroAlloc(t *testing.T) {
	m := New(Config{})
	const text = "SELECT a FROM t WHERE a = 1"
	tables := []string{"t"}
	record(m, text, tables) // first call inserts the statement row
	allocs := testing.AllocsPerRun(200, func() {
		h := m.StartStatement(text)
		h.Parsed("SELECT", tables)
		h.Optimized(10, 5, 100, nil, nil, time.Microsecond)
		if h.Profiled() {
			t.Fatal("statement profiled with empty flag set")
		}
		h.Finish(120, 7, 100, nil)
		h.FlushWaits()
	})
	if allocs != 0 {
		t.Fatalf("phase-1 record path allocates %.1f/op, want 0", allocs)
	}
}
