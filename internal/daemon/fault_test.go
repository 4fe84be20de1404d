package daemon

// Fault-injection suite: a fault-injecting wrapper substitutes for the
// daemon's target session through the execTarget seam, proving that
// the collection pipeline survives storage errors, persists every
// execution once, and degrades gracefully when the target stays down.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
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
	every  int64 // >0: fail every nth Exec
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
// applies nothing — the fail-stop behavior the daemon's exactly-once
// guarantee is stated under.
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
// loss at the old daemon.go appendWorkload call: entries taken from the
// monitor were dropped forever when the insert failed. A failed insert
// leaves the sums in the monitor, counted as rows the poll did not land,
// and the next successful poll lands them, exactly once.
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
		t.Errorf("CarryoverDepth = %d, want >= %d (workload rows not landed)",
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
		Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.retryBase, d.retryMax = time.Millisecond, 4*time.Millisecond
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
		Interval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.retryBase = time.Millisecond
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

// TestEvictedSumsBounded: while the target stays down, the sums wait
// in their statement entries. Evicted entries that hold sums wait too,
// up to the table's capacity; past it the oldest are dropped and counted
// in executions. Once the target heals, every execution is stored or
// counted as dropped, and the daemon itself dropped nothing.
func TestEvictedSumsBounded(t *testing.T) {
	const capacity = 8
	f := newFixtureCap(t, capacity)
	d, err := New(Config{Source: f.source, Mon: f.mon, Target: f.target})
	if err != nil {
		t.Fatal(err)
	}
	flaky := inject(d, f.target)
	flaky.forced.Store(true)
	landAll(f.mon)
	base := f.mon.TotalStatements()

	// Shape i (LIMIT n is part of the shape) runs twice. Shapes past the
	// table's capacity evict the oldest ones, sums and all.
	shapes := func(from, to int) {
		for i := from; i < to; i++ {
			for range 2 {
				exec(t, f.sess, fmt.Sprintf("SELECT v FROM t WHERE id = %d AND v = 'cap' LIMIT %d", i%10, i+1))
			}
		}
	}
	shapes(0, 2*capacity) // fills the table, then the evicted FIFO
	if err := d.Poll(); err == nil {
		t.Fatal("poll against a dead target reported success")
	}
	if depth, dropped := f.mon.WorkloadDepth(), f.mon.WorkloadDropped(); depth != capacity || dropped != 0 {
		t.Errorf("evicted entries waiting %d, dropped %d, want %d and 0", depth, dropped, capacity)
	}
	if got := d.Stats().CarryoverDepth; got != 2*capacity {
		t.Errorf("CarryoverDepth = %d, want %d rows selected and not landed", got, 2*capacity)
	}
	const overflow = 6
	shapes(2*capacity, 2*capacity+overflow) // pushes the oldest waiting entries out
	if err := d.Poll(); err == nil {
		t.Fatal("poll against a dead target reported success")
	}
	if depth, dropped := f.mon.WorkloadDepth(), f.mon.WorkloadDropped(); depth != capacity || dropped != 2*overflow {
		t.Errorf("evicted entries waiting %d, dropped %d executions, want %d and %d", depth, dropped, capacity, 2*overflow)
	}

	flaky.forced.Store(false)
	if err := d.Poll(); err != nil {
		t.Fatalf("poll after recovery: %v", err)
	}
	st := d.Stats()
	if st.CarryoverDepth != 0 || st.CarryoverDrops != 0 || f.mon.WorkloadDepth() != 0 {
		t.Errorf("after recovery: %d rows not landed, %d daemon drops, %d entries waiting", st.CarryoverDepth, st.CarryoverDrops, f.mon.WorkloadDepth())
	}
	stored := countRows(t, f.target, "SELECT SUM(executions) FROM "+workloaddb.Workload)
	if ran := f.mon.TotalStatements() - base; stored != 2*(2*capacity) || stored+f.mon.WorkloadDropped() != ran {
		t.Errorf("stored %d executions (want %d) + %d dropped != %d run", stored, 2*(2*capacity), f.mon.WorkloadDropped(), ran)
	}
}

// gatedDB holds the first poll inside its append to table until a
// second poll reaches the same append, or until it has had the time to.
type gatedDB struct {
	db      *engine.DB
	table   string
	first   atomic.Bool
	held    chan struct{} // closed when the first poll waits
	second  sync.Once     // closes reached
	reached chan struct{} // closed when another poll appends to table
	release chan struct{}
}

type gatedSession struct {
	g *gatedDB
	s *engine.Session
}

func (gs *gatedSession) Exec(sql string) (*engine.Result, error) {
	if g := gs.g; strings.HasPrefix(sql, "INSERT INTO "+g.table+" ") {
		if g.first.CompareAndSwap(false, true) {
			close(g.held)
			<-g.release
		} else {
			g.second.Do(func() { close(g.reached) })
		}
	}
	return gs.s.Exec(sql)
}

func (gs *gatedSession) Close() { gs.s.Close() }

// TestConcurrentPollsPersistOnce: Poll is public and may run beside Run.
// Two polls that overlap must not both persist what each selected before
// the other acknowledged it: no reference key and no execution is stored
// twice, whichever append the first poll is held in.
func TestConcurrentPollsPersistOnce(t *testing.T) {
	for _, table := range []string{workloaddb.Workload, workloaddb.References} {
		t.Run(table, func(t *testing.T) {
			f := newFixture(t)
			d, err := New(Config{Source: f.source, Mon: f.mon, Target: f.target})
			if err != nil {
				t.Fatal(err)
			}
			d.noVacuum = true
			queries := []string{"SELECT v FROM t WHERE id = 1 LIMIT 1", "SELECT id FROM t WHERE v = 'x2' LIMIT 2"}
			for _, q := range queries {
				exec(t, f.sess, q)
			}
			g := &gatedDB{db: f.target, table: table,
				held: make(chan struct{}), reached: make(chan struct{}), release: make(chan struct{})}
			d.newTarget = func() execTarget { return &gatedSession{g: g, s: g.db.NewSession()} }

			errs := make(chan error, 2)
			go func() { errs <- d.Poll() }()
			<-g.held
			go func() { errs <- d.Poll() }()
			select {
			case <-g.reached:
			case <-time.After(200 * time.Millisecond): // the second poll waits its turn
			}
			close(g.release)
			for range 2 {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}

			for _, q := range queries {
				if n := countRows(t, f.target, fmt.Sprintf("SELECT SUM(executions) FROM %s WHERE hash = %d",
					workloaddb.Workload, int64(sqlparser.DigestOf(q)))); n != 1 {
					t.Errorf("%q stored as %d executions, want 1", q, n)
				}
			}
			ws := f.target.NewSession()
			defer ws.Close()
			keys := map[string]int{}
			for _, r := range exec(t, ws, "SELECT hash, obj_type, obj_name FROM "+workloaddb.References).Rows {
				keys[r.String()]++
			}
			for k, n := range keys {
				if n != 1 {
					t.Errorf("reference %s stored %d times", k, n)
				}
			}
			if len(keys) == 0 {
				t.Error("no reference stored")
			}
		})
	}
}

// TestFaultInjectionExactlyOnce is the acceptance scenario: with every
// nth target Exec failing, a daemon run over a generated workload
// persists every execution exactly once, Run never exits before
// context cancellation, and alert errors are counted without stopping
// the polling loop.
func TestFaultInjectionExactlyOnce(t *testing.T) {
	f := newFixture(t)
	var healthyFired atomic.Int64
	d, err := New(Config{
		Source: f.source, Mon: f.mon, Target: f.target,
		Interval: 3 * time.Millisecond,
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
	d.retryBase, d.retryMax = time.Millisecond, 4*time.Millisecond
	flaky := inject(d, f.target)
	// Every 10th Exec against the target fails. A busy poll issues up to
	// nine consecutive Execs (statements, workload, references, three
	// object tables, statistics, latency, stages — the alert sessions'
	// first statements are sampled — minus the tables with nothing new),
	// so the failure position drifts across polls: some polls fail, some
	// succeed. (With every ≤ 3 no poll could ever fully succeed.)
	flaky.every = 10

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

	// Wait until every generated execution has been persisted and the
	// last poll landed every workload row it selected. (The monitor never
	// goes idle here: the alert queries themselves are monitored
	// executions, so each poll leaves sums the next poll persists.)
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
			t.Fatalf("pipeline never drained: stats %+v, evicted entries waiting %d", d.Stats(), f.mon.WorkloadDepth())
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
		t.Errorf("CarryoverDrops = %d, want 0 (the daemon keeps nothing to drop)", st.CarryoverDrops)
	}

	// The daemon's health counters made it into the persisted series.
	if got := countRows(t, f.target,
		"SELECT COUNT(*) FROM "+workloaddb.Statistics+" WHERE poll_errors > 0"); got == 0 {
		t.Error("poll_errors never recorded in ws_statistics")
	}
}
