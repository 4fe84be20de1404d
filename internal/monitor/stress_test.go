package monitor_test

// Concurrency stress suite for the sharded monitor hot path: writers
// hammer the statement table while readers loop Snapshot and read and
// land the workload relation, and every global invariant the sharding
// must preserve is asserted — the capacity bound, lossless cumulative
// totals, and exactly-once workload sums. Run with -race.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/monitor"
)

func stressScale(t *testing.T, full int) int {
	t.Helper()
	if testing.Short() {
		return full / 10
	}
	return full
}

// TestStressCapacityInvariant churns far more distinct statements than
// the capacity through concurrent writers while a reader continuously
// snapshots, and asserts the distinct-statement bound is never
// exceeded — neither in any snapshot nor in the final state.
func TestStressCapacityInvariant(t *testing.T) {
	const (
		capacity = 64
		writers  = 8
	)
	perWriter := stressScale(t, 5000)
	m := monitor.New(monitor.Config{StatementCapacity: capacity, Shards: 8})

	var wg, readerWG sync.WaitGroup
	stop := make(chan struct{})
	var snapErr atomic.Value
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := len(m.SnapshotStatements()); n > capacity {
				snapErr.Store(fmt.Sprintf("snapshot saw %d statements, capacity %d", n, capacity))
				return
			}
			if n := m.StatementCount(); n > capacity {
				snapErr.Store(fmt.Sprintf("StatementCount saw %d, capacity %d", n, capacity))
				return
			}
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h := m.StartStatement(fmt.Sprintf("SELECT %d FROM t WHERE w = %d", i, w))
				h.Parsed("SELECT", []string{"t"})
				h.Finish(1, 0, 1, nil)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	if msg := snapErr.Load(); msg != nil {
		t.Fatal(msg)
	}
	if n := m.StatementCount(); n != capacity {
		t.Fatalf("final statement count = %d, want exactly %d (capacity, after churn)", n, capacity)
	}
	if got, want := m.TotalStatements(), int64(writers*perWriter); got != want {
		t.Fatalf("TotalStatements = %d, want %d", got, want)
	}
}

// TestStressNoLostTotals interleaves writers with a reader that drains
// the workload ring, and asserts nothing is lost: the drained entries
// plus the final drain account for every execution exactly once, and
// the cumulative totals match.
func TestStressNoLostTotals(t *testing.T) {
	const writers = 8
	perWriter := stressScale(t, 5000)
	total := writers * perWriter
	// A table that holds every statement evicts nothing, so no sums can
	// be dropped and every execution must land exactly once.
	m := monitor.New(monitor.Config{StatementCapacity: 128})
	drain := func() int64 {
		var n int64
		ws := m.SnapshotWorkload()
		for _, w := range ws {
			n += w.Executions
		}
		m.Landed(ws)
		return n
	}

	var drained atomic.Int64
	var wg, readerWG sync.WaitGroup
	stop := make(chan struct{})
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			drained.Add(drain())
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h := m.StartStatement(fmt.Sprintf("SELECT %d FROM t", i%97))
				h.Parsed("SELECT", []string{"t"})
				h.Finish(1, 0, 1, nil)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	drained.Add(drain())

	if got := drained.Load(); got != int64(total) {
		t.Fatalf("landed %d executions across polls, want exactly %d", got, total)
	}
	if got := m.TotalStatements(); got != int64(total) {
		t.Fatalf("TotalStatements = %d, want %d (cumulative totals must survive drains)", got, total)
	}
	if m.TotalMonitorTime() <= 0 {
		t.Fatal("TotalMonitorTime not accumulated")
	}
	// Frequencies across the (small) distinct set also sum to the total.
	var freq int64
	for _, si := range m.SnapshotStatements() {
		freq += si.Frequency
	}
	if freq != int64(total) {
		t.Fatalf("sum of statement frequencies = %d, want %d", freq, total)
	}
}

// TestStressSnapshotConsistencyUnderChurn verifies that snapshots taken
// while the statement table churns are internally consistent: no
// duplicate hashes, and never more than the capacity.
func TestStressSnapshotConsistencyUnderChurn(t *testing.T) {
	const capacity = 32
	iters := stressScale(t, 2000)
	m := monitor.New(monitor.Config{StatementCapacity: capacity, Shards: 4})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := m.StartStatement(fmt.Sprintf("SELECT %d FROM t%d", i, w))
				h.Parsed("SELECT", []string{fmt.Sprintf("t%d", w)})
				h.Finish(1, 0, 1, nil)
				i++
			}
		}(w)
	}

	for i := 0; i < iters; i++ {
		stmts := m.SnapshotStatements()
		if len(stmts) > capacity {
			t.Errorf("snapshot %d: %d statements, capacity %d", i, len(stmts), capacity)
			break
		}
		seen := make(map[uint64]bool, len(stmts))
		for _, si := range stmts {
			if seen[si.Hash] {
				t.Errorf("snapshot %d: duplicate hash %d", i, si.Hash)
			}
			seen[si.Hash] = true
		}
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()
}
