package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/monitor"
	"repro/internal/sqlparser"
	"repro/internal/stage"
)

// stagesOf returns the stage sums of q's shape.
func stagesOf(t *testing.T, m *monitor.Monitor, q string) monitor.StageSums {
	t.Helper()
	d := sqlparser.DigestOf(q)
	for _, st := range m.SnapshotStages() {
		if st.Hash == d {
			return st
		}
	}
	t.Fatalf("no stage row for %q", q)
	return monitor.StageSums{}
}

// wantStages fails for every stage of st that is not positive, and
// checks the stages sum to the wall time.
func wantStages(t *testing.T, what string, st monitor.StageSums, stages ...stage.Stage) {
	t.Helper()
	var sum int64
	var b strings.Builder
	for i, ns := range st.Ns {
		sum += ns
		fmt.Fprintf(&b, " %s=%d", stage.Stage(i), ns)
	}
	t.Logf("%s, %d samples, wall %d ns:%s", what, st.Samples, st.WallNs, b.String())
	if sum != st.WallNs {
		t.Errorf("%s: stages sum to %d ns, wall %d ns", what, sum, st.WallNs)
	}
	for _, s := range stages {
		if st.Ns[s] <= 0 {
			t.Errorf("%s: no time in %s: %v", what, s, st.Ns)
		}
	}
}

// TestStagePlacement runs each kind of statement with every execution
// sampled and checks its time lands in the stages its path crosses:
// contended durable UPDATEs wait on row locks, stage their WAL unit and
// wait for the log; selects over a pool smaller than their table load
// pages and cross the B-Tree and the heap; a cached point select gets its
// page from the pool and is never planned.
func TestStagePlacement(t *testing.T) {
	samplePeriod = 1
	defer func() { samplePeriod = stagePeriod }()
	m := monitor.New(monitor.Config{})
	db, err := Open(Config{Dir: t.TempDir(), PoolPages: 16, Monitor: m})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE big (id INTEGER PRIMARY KEY, bal INTEGER, pad VARCHAR(256))")
	pad := strings.Repeat("x", 200)
	for base := 0; base < 2000; base += 100 {
		var vals []string
		for i := base; i < base+100; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, '%s')", i, i, pad))
		}
		mustExec(t, s, "INSERT INTO big (id, bal, pad) VALUES "+strings.Join(vals, ", "))
	}

	const upd = "UPDATE big SET bal = bal + 1 WHERE id < 30"
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			defer sess.Close()
			for i := 0; i < 10; i++ {
				if _, err := sess.Exec(upd); err != nil && !errors.Is(err, ErrWriteConflict) {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	wantStages(t, "contended UPDATE", stagesOf(t, m, upd), stage.LockWait, stage.WAL, stage.Durable, stage.Heap, stage.BTree)

	const rng = "SELECT pad FROM big WHERE id > 300 AND id < 1500"
	if p := mustExec(t, s, rng).Plan; len(p.UsedIndexes) == 0 {
		t.Fatalf("the range select does not use the key:\n%s", p)
	}
	for i := 0; i < 3; i++ {
		mustExec(t, s, rng)
	}
	wantStages(t, "range select over a 16-page pool", stagesOf(t, m, rng), stage.Load, stage.BTree, stage.Heap, stage.Result)

	const point = "SELECT bal FROM big WHERE id = 7"
	mustExec(t, s, point) // planned and cached
	mustExec(t, s, point) // every page it needs in the pool
	before := stagesOf(t, m, point)
	for i := 0; i < 20; i++ {
		mustExec(t, s, point)
	}
	after := stagesOf(t, m, point)
	d := diffStages(after, before)
	if d.Samples != 20 || d.Ns[stage.Plan] != 0 {
		t.Errorf("cached point select: %d samples, %d ns planning; want 20 and none", d.Samples, d.Ns[stage.Plan])
	}
	wantStages(t, "cached point select", d, stage.Parse, stage.Bind, stage.Admit, stage.Snapshot,
		stage.Exec, stage.Pool, stage.BTree, stage.Heap, stage.Sensor, stage.Result)
}

// TestWaitAttributionCoverage is the acceptance criterion: a sampled
// statement's stages account for its whole measured wall time in a
// contended workload — row-lock waits and the durable commit included —
// and every attempted execution, conflicted or not, is one sample.
func TestWaitAttributionCoverage(t *testing.T) {
	samplePeriod = 1
	defer func() { samplePeriod = stagePeriod }()
	m := monitor.New(monitor.Config{})
	// A small pool forces page loads; durable autocommit forces waits on
	// the log; concurrent updates of one table force lock waits.
	db, err := Open(Config{Dir: t.TempDir(), PoolPages: 64, Monitor: m})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE accounts (id INTEGER PRIMARY KEY, bal INTEGER)")
	for base := 0; base < 2000; base += 200 {
		var vals []string
		for i := base; i < base+200; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d)", i, i))
		}
		mustExec(t, s, "INSERT INTO accounts (id, bal) VALUES "+strings.Join(vals, ", "))
	}
	const q = "UPDATE accounts SET bal = bal + 1 WHERE id < 300"
	mustExec(t, s, q) // warm the plan cache
	s.Close()

	before, totBefore := stagesOf(t, m, q), m.StageTotals()
	const sessions, perSession = 4, 20
	var attempts atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			defer sess.Close()
			for i := 0; i < perSession; i++ {
				// Write conflicts are retried; every attempt is one
				// sampled execution.
				for {
					attempts.Add(1)
					_, err := sess.Exec(q)
					if err == nil {
						break
					}
					if errors.Is(err, ErrWriteConflict) {
						continue
					}
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	after, totAfter := stagesOf(t, m, q), m.StageTotals()
	f, tot := diffStages(after, before), diffStages(totAfter, totBefore)
	if f.Samples != attempts.Load() {
		t.Fatalf("samples = %d, want %d attempted executions", f.Samples, attempts.Load())
	}
	if f.WallNs <= 0 {
		t.Fatal("no wall time attributed")
	}
	wantStages(t, "contended durable UPDATE", f, stage.LockWait, stage.Durable)

	// Parity: only the statement ran since the first reading, so the
	// monitor's totals moved by exactly its stage sums.
	if tot.Samples != f.Samples || tot.WallNs != f.WallNs || tot.Ns != f.Ns {
		t.Fatalf("StageTotals moved by %+v, the statement's sums by %+v", tot, f)
	}
}

// TestWaitAttributionSelects covers the read path: sampled SELECTs on a
// pool smaller than the table attribute page loads, and their stages sum
// to their wall time.
func TestWaitAttributionSelects(t *testing.T) {
	samplePeriod = 1
	defer func() { samplePeriod = stagePeriod }()
	m := monitor.New(monitor.Config{})
	db, err := Open(Config{Dir: t.TempDir(), PoolPages: 16, Monitor: m})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE big (id INTEGER PRIMARY KEY, pad VARCHAR(256))")
	pad := strings.Repeat("x", 200)
	for base := 0; base < 3000; base += 100 {
		var vals []string
		for i := base; i < base+100; i++ {
			vals = append(vals, fmt.Sprintf("(%d, '%s')", i, pad))
		}
		mustExec(t, s, "INSERT INTO big (id, pad) VALUES "+strings.Join(vals, ", "))
	}
	const q = "SELECT COUNT(*) FROM big"
	mustExec(t, s, q)
	before := stagesOf(t, m, q)
	for i := 0; i < 10; i++ {
		mustExec(t, s, q)
	}
	f := diffStages(stagesOf(t, m, q), before)
	if f.Samples != 10 {
		t.Fatalf("samples = %d, want 10", f.Samples)
	}
	wantStages(t, "scan over a 16-page pool", f, stage.Load)
}

// diffStages returns what the sums gained from before to after.
func diffStages(after, before monitor.StageSums) monitor.StageSums {
	d := monitor.StageSums{Hash: after.Hash, Samples: after.Samples - before.Samples, WallNs: after.WallNs - before.WallNs}
	for i := range d.Ns {
		d.Ns[i] = after.Ns[i] - before.Ns[i]
	}
	return d
}
