package monitor

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sqlparser"
	"repro/internal/stage"
)

// Sensor overhead benchmarks and the zero-alloc guard behind the CI
// stage-attribution step. The Call benchmarks run the complete record
// path (StartStatement → Parsed → Optimized → Finish) the way the engine
// drives it; the Parallel16 variant is the acceptance number.

func benchMonitorCall(b *testing.B, par int) {
	m := New(Config{})
	const text = "SELECT a FROM t WHERE a = 1"
	tables := []string{"t"}
	attrs := []string{"t.a"}
	digest := sqlparser.DigestOf(text) // as the engine's prepare hands it over
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
				h.Finish(120, 7, 100, nil)
			}
		}()
	}
	wg.Wait()
}

func BenchmarkMonitorCallParallel1(b *testing.B)  { benchMonitorCall(b, 1) }
func BenchmarkMonitorCallParallel16(b *testing.B) { benchMonitorCall(b, 16) }

// TestPhase1RecordPathZeroAlloc asserts the slow-path record path
// allocates nothing per execution, sampled by stage or not.
func TestPhase1RecordPathZeroAlloc(t *testing.T) {
	m := New(Config{})
	const text = "SELECT a FROM t WHERE a = 1"
	tables := []string{"t"}
	record(m, text, tables) // first call inserts the statement row
	var clk stage.Clock
	for _, sampled := range []bool{false, true} {
		allocs := testing.AllocsPerRun(200, func() {
			h := m.StartStatement(text)
			if sampled {
				h.Sample(&clk)
			}
			h.Parsed("SELECT", tables)
			h.Optimized(10, 5, 100, nil, nil, time.Microsecond)
			h.Finish(120, 7, 100, nil)
		})
		if allocs != 0 {
			t.Fatalf("record path (sampled %v) allocates %.1f/op, want 0", sampled, allocs)
		}
	}
	if st := m.StageTotals(); st.Samples != 201 || st.Ns[stage.Parse]+st.Ns[stage.Sensor] != st.WallNs {
		t.Errorf("stage totals %+v: want 201 samples, all parse or sensor", st)
	}
}
