package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkCreateIndexUnderWrites builds a secondary index over a
// populated table while one writer session keeps inserting, and reports
// (a) the build's wallclock, (b) how many writes completed during the
// build, and (c) the longest single write stall. The build lets writers
// in between backfill batches, so the stall is bounded by the final
// catch-up with the table drained, not by the build.
func BenchmarkCreateIndexUnderWrites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := Open(Config{Dir: b.TempDir(), PoolPages: 256})
		if err != nil {
			b.Fatal(err)
		}
		s := d.NewSession()
		if _, err := s.Exec("CREATE TABLE bx (id INTEGER PRIMARY KEY, a INTEGER)"); err != nil {
			b.Fatal(err)
		}
		s.Begin()
		for r := 0; r < 20000; r++ {
			if _, err := s.Exec(fmt.Sprintf("INSERT INTO bx VALUES (%d, %d)", r, r%997)); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Commit(); err != nil {
			b.Fatal(err)
		}

		var (
			stop     atomic.Bool
			writes   atomic.Int64
			maxStall atomic.Int64
			wg       sync.WaitGroup
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := d.NewSession()
			defer ws.Close()
			for n := 100_000; !stop.Load(); n++ {
				t0 := time.Now()
				if _, err := ws.Exec(fmt.Sprintf("INSERT INTO bx VALUES (%d, %d)", n, n%997)); err != nil {
					b.Error(err)
					return
				}
				el := time.Since(t0).Nanoseconds()
				if el > maxStall.Load() {
					maxStall.Store(el)
				}
				writes.Add(1)
			}
		}()
		// Let the writer reach steady state before the build starts.
		time.Sleep(50 * time.Millisecond)

		b.StartTimer()
		t0 := time.Now()
		if _, err := s.Exec("CREATE INDEX bx_a ON bx (a)"); err != nil {
			b.Fatal(err)
		}
		build := time.Since(t0)
		b.StopTimer()
		stop.Store(true)
		wg.Wait()
		s.Close()
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(build.Milliseconds()), "build-ms")
		b.ReportMetric(float64(writes.Load()), "writes-during")
		b.ReportMetric(float64(maxStall.Load())/1e6, "max-stall-ms")
	}
}
