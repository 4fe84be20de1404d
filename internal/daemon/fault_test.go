package daemon

// Fault-injection suite: a fault-injecting wrapper substitutes for the
// daemon's target session through the execTarget seam, proving that
// the collection pipeline survives storage errors, loses no drained
// data, and degrades gracefully when the target stays down.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sqlparser"
	"repro/internal/workloaddb"
)

var errInjected = errors.New("injected storage fault")

// flakyDB wraps the target engine behind the daemon's exec seam and
// fails Execs on demand: every nth call, all calls while forced, or
// fatally.
type flakyDB struct {
	db     *engine.DB
	every  int64       // >0: fail every nth Exec
	calls  atomic.Int64
	forced atomic.Bool // fail every Exec while set
	fatal  atomic.Bool // fail with a FatalError while set
	failed atomic.Int64
}

func (f *flakyDB) target() execTarget {
	return &flakySession{f: f, s: f.db.NewSession()}
}

type flakySession struct {
	f *flakyDB
	s *engine.Session
}

// Exec fails before touching the real session, so a failed call
// applies nothing — the fail-stop behavior the carryover's
// exactly-once guarantee is stated under.
func (fs *flakySession) Exec(sql string) (*engine.Result, error) {
	if fs.f.fatal.Load() {
		fs.f.failed.Add(1)
		return nil, Fatal(errInjected)
	}
	if fs.f.forced.Load() || (fs.f.every > 0 && fs.f.calls.Add(1)%fs.f.every == 0) {
		fs.f.failed.Add(1)
		return nil, errInjected
	}
	return fs.s.Exec(sql)
}

func (fs *flakySession) Close() { fs.s.Close() }

// inject reroutes d's target sessions through a flakyDB.
func inject(d *Daemon, target *engine.DB) *flakyDB {
	f := &flakyDB{db: target}
	d.newTarget = f.target
	return f
}

func countRows(t *testing.T, db *engine.DB, query string) int64 {
	t.Helper()
	s := db.NewSession()
	defer s.Close()
	res, err := s.Exec(query)
	if err != nil {
		t.Fatalf("Exec(%q): %v", query, err)
	}
	return res.Rows[0][0].I
}

// TestPollRequeuesFailedWorkload is the regression test for the data
// loss at the old daemon.go appendWorkload call: entries drained from
// the monitor were dropped forever when the insert failed. They must
// land on the next successful poll instead, exactly once.
func TestPollRequeuesFailedWorkload(t *testing.T) {
	f := newFixture(t)
	d, err := New(Config{Source: f.source, Mon: f.mon, Target: f.target})
	if err != nil {
		t.Fatal(err)
	}
	flaky := inject(d, f.target)

	queries := []string{ // three shapes: LIMIT stays in the statement
		"SELECT v FROM t WHERE id = 1 LIMIT 1",
		"SELECT v FROM t WHERE id = 2 LIMIT 2",
		"SELECT v FROM t WHERE id = 3 LIMIT 3",
	}
	for _, q := range queries {
		exec(t, f.sess, q)
	}

	flaky.forced.Store(true)
	if err := d.Poll(); err == nil {
		t.Fatal("poll against a dead target reported success")
	}
	st := d.Stats()
	if st.PollErrors != 1 {
		t.Errorf("PollErrors = %d, want 1", st.PollErrors)
	}
	if st.CarryoverDepth < int64(len(queries)) {
		t.Errorf("CarryoverDepth = %d, want >= %d (drained entries requeued)",
			st.CarryoverDepth, len(queries))
	}
	if n := countRows(t, f.target, "SELECT COUNT(*) FROM "+workloaddb.Workload); n != 0 {
		t.Fatalf("rows landed through a dead target: %d", n)
	}

	flaky.forced.Store(false)
	if err := d.Poll(); err != nil {
		t.Fatalf("poll after recovery: %v", err)
	}
	for _, q := range queries {
		n := countRows(t, f.target, fmt.Sprintf("SELECT SUM(executions) FROM %s WHERE hash = %d",
			workloaddb.Workload, int64(sqlparser.DigestOf(q))))
		if n != 1 {
			t.Errorf("stored executions of %q = %d, want exactly 1", q, n)
		}
	}
	if depth := d.Stats().CarryoverDepth; depth != 0 {
		t.Errorf("CarryoverDepth after recovery = %d, want 0", depth)
	}
}

// TestRunSurvivesTransientErrors: Run must not terminate on transient
// poll failures; it backs off, retries, and recovers when the target
// heals.
func TestRunSurvivesTransientErrors(t *testing.T) {
	f := newFixture(t)
	d, err := New(Config{
		Source: f.source, Mon: f.mon, Target: f.target,
		Interval:  5 * time.Millisecond,
		RetryBase: time.Millisecond,
		RetryMax:  4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	flaky := inject(d, f.target)
	flaky.forced.Store(true)

	exec(t, f.sess, "SELECT v FROM t WHERE id = 7")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- d.Run(ctx) }()

	deadline := time.After(5 * time.Second)
	for d.Stats().PollErrors < 3 || d.Stats().Retries < 2 {
		select {
		case err := <-runDone:
			t.Fatalf("Run exited on a transient error: %v", err)
		case <-deadline:
			t.Fatalf("no retries observed: %+v", d.Stats())
		case <-time.After(time.Millisecond):
		}
	}

	flaky.forced.Store(false)
	hash := int64(sqlparser.DigestOf("SELECT v FROM t WHERE id = 7"))
	for countRows(t, f.target, fmt.Sprintf("SELECT SUM(executions) FROM %s WHERE hash = %d",
		workloaddb.Workload, hash)) != 1 {
		select {
		case err := <-runDone:
			t.Fatalf("Run exited before recovery: %v", err)
		case <-deadline:
			t.Fatal("entry never landed after the target healed")
		case <-time.After(time.Millisecond):
		}
	}

	cancel()
	if err := <-runDone; err != context.Canceled {
		t.Errorf("Run returned %v, want context.Canceled", err)
	}
}

// TestRunStopsOnFatal: errors wrapped with Fatal must still terminate
// the loop — fault tolerance is for transient failures only.
func TestRunStopsOnFatal(t *testing.T) {
	f := newFixture(t)
	d, err := New(Config{
		Source: f.source, Mon: f.mon, Target: f.target,
		Interval:  time.Millisecond,
		RetryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	flaky := inject(d, f.target)
	flaky.fatal.Store(true)
	exec(t, f.sess, "SELECT v FROM t WHERE id = 1")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = d.Run(ctx)
	if ctx.Err() != nil {
		t.Fatal("Run did not exit on a fatal error before the timeout")
	}
	if !IsFatal(err) || !errors.Is(err, errInjected) {
		t.Errorf("Run returned %v, want a fatal error wrapping the injected fault", err)
	}
}

// TestCarryoverBounded: when the target stays down, the carryover
// buffer stops at its cap (dropping oldest first, counted in executions)
// and the daemon stops draining so the monitor absorbs — and counts —
// the overflow instead of an unbounded queue.
func TestCarryoverBounded(t *testing.T) {
	f := newFixture(t)
	d, err := New(Config{
		Source: f.source, Mon: f.mon, Target: f.target,
		CarryoverCap: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	flaky := inject(d, f.target)
	flaky.forced.Store(true)

	// Clear the fixture's setup statements so the drop accounting below
	// covers exactly the generated load: 20 executions of a statement
	// the engine does not cache, a raw entry each, and 20 shapes (LIMIT n
	// is part of the shape) run twice, which add up in the shape's
	// entry. The drain is the 20 raw entries, then 20 of two executions.
	f.mon.DrainWorkload()
	base := f.mon.TotalStatements()
	for i := 0; i < 20; i++ {
		exec(t, f.sess, "SET PARALLEL 1")
	}
	for i := 0; i < 20; i++ {
		for range 2 {
			exec(t, f.sess, fmt.Sprintf("SELECT v FROM t WHERE id = %d AND v = 'cap' LIMIT %d", i, i+1))
		}
	}
	if err := d.Poll(); err == nil {
		t.Fatal("poll against a dead target reported success")
	}
	st := d.Stats()
	if st.CarryoverDepth != 8 {
		t.Errorf("CarryoverDepth = %d, want 8 (the cap)", st.CarryoverDepth)
	}
	if st.CarryoverDrops != 20+12*2 {
		t.Errorf("CarryoverDrops = %d executions, want 44 (20 raw entries and 12 of two executions)", st.CarryoverDrops)
	}

	// With the carryover saturated, further polls must not drain the
	// monitor: fresh entries wait in the ring.
	for i := 0; i < 5; i++ {
		exec(t, f.sess, "SET PARALLEL 1")
	}
	if err := d.Poll(); err == nil {
		t.Fatal("poll against a dead target reported success")
	}
	if depth := d.Stats().CarryoverDepth; depth != 8 {
		t.Errorf("CarryoverDepth grew past the cap: %d", depth)
	}
	if ringDepth := f.mon.WorkloadDepth(); ringDepth != 5 {
		t.Errorf("monitor ring drained while carryover was full: depth %d, want 5", ringDepth)
	}

	// Heal: the capped carryover flushes first, then the ring.
	flaky.forced.Store(false)
	if err := d.Poll(); err != nil {
		t.Fatalf("poll after recovery: %v", err)
	}
	if err := d.Poll(); err != nil {
		t.Fatalf("second poll after recovery: %v", err)
	}
	if depth := d.Stats().CarryoverDepth; depth != 0 {
		t.Errorf("CarryoverDepth after recovery = %d", depth)
	}
	if got := countRows(t, f.target, "SELECT COUNT(*) FROM "+workloaddb.Workload); got != 8+5 {
		t.Errorf("persisted workload rows = %d, want %d (cap survivors + ring)", got, 8+5)
	}
	// Every execution is stored or counted as dropped.
	stored := countRows(t, f.target, "SELECT SUM(executions) FROM "+workloaddb.Workload)
	if ran := f.mon.TotalStatements() - base; stored != 8*2+5 || stored+d.Stats().CarryoverDrops+f.mon.WorkloadDropped() != ran {
		t.Errorf("stored %d executions (want 21) + %d carryover drops + %d ring drops != %d run",
			stored, d.Stats().CarryoverDrops, f.mon.WorkloadDropped(), ran)
	}
}

// TestFaultInjectionExactlyOnce is the acceptance scenario: with every
// nth target Exec failing, a daemon run over a generated workload
// persists every drained workload entry exactly once, Run never exits
// before context cancellation, and alert errors are counted without
// stopping the polling loop.
func TestFaultInjectionExactlyOnce(t *testing.T) {
	f := newFixture(t)
	var healthyFired atomic.Int64
	d, err := New(Config{
		Source: f.source, Mon: f.mon, Target: f.target,
		Interval:  3 * time.Millisecond,
		RetryBase: time.Millisecond,
		RetryMax:  4 * time.Millisecond,
		Alerts: []Alert{
			{Name: "broken", Query: "SELECT nope FROM missing", Op: ">", Threshold: 0},
			{
				Name: "healthy", Query: "SELECT statements FROM ima_statistics",
				Op: ">=", Threshold: 0,
				Action: func(Event) { healthyFired.Add(1) },
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	flaky := inject(d, f.target)
	// Every 9th Exec against the target fails. A busy poll issues up to
	// eight consecutive Execs (workload, statements, references, three
	// object tables, statistics, latency — minus the tables with nothing
	// new), so the failure position drifts across polls: some polls fail,
	// some succeed. (With every ≤ 3 no poll could ever fully succeed.)
	flaky.every = 9

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- d.Run(ctx) }()

	const n = 40
	queries := make([]string, n)
	for i := range queries {
		// One shape each (LIMIT stays in the statement), so its hash
		// singles out the one execution.
		queries[i] = fmt.Sprintf("SELECT v FROM t WHERE id = %d AND v = 'w%d' LIMIT %d", i%10, i, i+1)
		exec(t, f.sess, queries[i])
		time.Sleep(500 * time.Microsecond) // polls interleave with the load
	}

	// Wait until every generated entry has been persisted and nothing
	// is left in flight in the carryover. (The monitor ring never goes
	// idle here: the alert queries themselves are monitored executions,
	// so each poll feeds the ring the next poll drains.)
	allLanded := func() bool {
		for _, q := range queries {
			got := countRows(t, f.target, fmt.Sprintf("SELECT SUM(executions) FROM %s WHERE hash = %d",
				workloaddb.Workload, int64(sqlparser.DigestOf(q))))
			if got == 0 {
				return false
			}
		}
		return true
	}
	deadline := time.After(20 * time.Second)
	for !(d.Stats().CarryoverDepth == 0 && allLanded()) {
		select {
		case err := <-runDone:
			t.Fatalf("Run exited before cancellation: %v (stats %+v)", err, d.Stats())
		case <-deadline:
			t.Fatalf("pipeline never drained: stats %+v, ring %d", d.Stats(), f.mon.WorkloadDepth())
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	if err := <-runDone; err != context.Canceled {
		t.Errorf("Run returned %v, want context.Canceled", err)
	}

	// Exactly once: each generated statement is stored as one execution.
	for _, q := range queries {
		got := countRows(t, f.target, fmt.Sprintf("SELECT SUM(executions) FROM %s WHERE hash = %d",
			workloaddb.Workload, int64(sqlparser.DigestOf(q))))
		if got != 1 {
			t.Errorf("stored executions of %q = %d, want exactly 1", q, got)
		}
	}

	st := d.Stats()
	if flaky.failed.Load() == 0 || st.PollErrors == 0 {
		t.Errorf("no faults were actually injected: %d Exec failures, stats %+v", flaky.failed.Load(), st)
	}
	if st.Polls <= st.PollErrors {
		t.Errorf("no poll ever succeeded: %+v", st)
	}
	if st.AlertErrors == 0 {
		t.Error("broken alert never counted")
	}
	if healthyFired.Load() == 0 {
		t.Error("healthy alert starved by the broken one")
	}
	if st.CarryoverDrops != 0 {
		t.Errorf("CarryoverDrops = %d, want 0 (cap never reached in this scenario)", st.CarryoverDrops)
	}

	// The daemon's health counters made it into the persisted series.
	if got := countRows(t, f.target,
		"SELECT COUNT(*) FROM "+workloaddb.Statistics+" WHERE poll_errors > 0"); got == 0 {
		t.Error("poll_errors never recorded in ws_statistics")
	}
}
