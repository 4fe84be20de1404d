package daemon

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/ima"
	"repro/internal/monitor"
	"repro/internal/sqlparser"
	"repro/internal/workloaddb"
)

// cost is what one statement's executions add up to, as the session
// that ran them sees it: the four columns of ws_workload a caller can
// check without reading the sensors. A write's rows are the rows it
// changed.
type cost struct{ executions, rows, cpu, errors int64 }

// TestWorkloadConservation (run with -race; it lives here, not beside
// core's TestSensorConservationUnderChurn, because the failing target is
// this package's exec seam): eight sessions run a seeded schedule of
// cached shapes — a hundred of them through a statement table of 64, so
// Shapes are evicted with sums pending — uncached statements, failing
// statements and one shape sampled by stage on every execution, while DDL keeps dropping
// the prepared cache (re-publishing every shape) and the daemon polls
// against a target that fails every 7th Exec. Afterwards every execution
// is in ws_workload exactly once:
//
//	per digest, SUM(executions), SUM(rows), SUM(error) = the sessions' own count
//	per DDL digest, SUM(exec_cpu) = the rows the sessions saw affected
//	for the UPDATE, SUM(exec_cpu) — the versions examined — >= SUM(rows)
//	SUM(executions) = TotalStatements; nothing dropped, nothing left waiting
//	the sampled shape adds up like any other: one row per poll at most;
//	its ws_stages rows count no more samples than it ran, their stages
//	sum to their wall, and every ws_stages hash joins a ws_statements row
func TestWorkloadConservation(t *testing.T) {
	dir := t.TempDir()
	mon := monitor.New(monitor.Config{StatementCapacity: 64})
	source, err := engine.Open(engine.Config{Dir: filepath.Join(dir, "src"), PoolPages: 256, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	defer source.Close()
	if err := ima.Register(ima.Sources{DB: source, Mon: mon}); err != nil {
		t.Fatal(err)
	}
	target, err := engine.Open(engine.Config{Dir: filepath.Join(dir, "wdb"), PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	d, err := New(Config{Source: source, Mon: mon, Target: target})
	if err != nil {
		t.Fatal(err)
	}
	flaky := inject(d, target)
	flaky.every = 7

	const sessions, rowsPerSession = 8, 25
	setup := source.NewSession()
	exec(t, setup, "CREATE TABLE item (id INTEGER PRIMARY KEY, grp INTEGER, name VARCHAR(32))")
	for i := 0; i < sessions*rowsPerSession; i++ {
		exec(t, setup, fmt.Sprintf("INSERT INTO item VALUES (%d, %d, 'item%d')", i, i%17, i))
	}
	setup.Close()
	landAll(mon) // the schedule below is all that is counted
	base := mon.TotalStatements()

	// A session samples its first statement: run on a fresh session
	// each time, this shape is attributed by stage on every execution.
	const sampled = "SELECT name FROM item WHERE grp = 1 AND id < 50"

	perSession := 600
	if testing.Short() {
		perSession = 300
	}
	var executed atomic.Int64
	// run executes sql and notes it in tally under its digest.
	run := func(s *engine.Session, tally map[uint64]*cost, sql string, fails bool) {
		c := tally[sqlparser.DigestOf(sql)]
		if c == nil {
			c = &cost{}
			tally[sqlparser.DigestOf(sql)] = c
		}
		res, err := s.Exec(sql)
		c.executions++
		switch {
		case err != nil && !fails:
			t.Errorf("%s: %v", sql, err)
		case err == nil && fails:
			t.Errorf("%s succeeded", sql)
		case err != nil:
			c.errors++
		case strings.HasPrefix(sql, "UPDATE") || strings.HasPrefix(sql, "INSERT"):
			c.rows += res.RowsAffected // a write's exec_cpu counts the versions it examined
		default:
			c.rows += int64(len(res.Rows))
			c.cpu += res.RowsAffected
		}
		executed.Add(1)
	}
	tallies := make([]map[uint64]*cost, sessions+1)
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		tallies[g] = map[uint64]*cost{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := source.NewSession()
			defer s.Close()
			r := rand.New(rand.NewSource(int64(g)))
			own := g * rowsPerSession // the keys this session alone writes
			for i := 0; i < perSession; i++ {
				switch k := r.Intn(20); {
				case k < 6: // the hot cached shape
					run(s, tallies[g], fmt.Sprintf("SELECT name FROM item WHERE id = %d", r.Intn(sessions*rowsPerSession)), false)
				case k < 12: // LIMIT stays in the statement: 100 cached shapes
					run(s, tallies[g], fmt.Sprintf("SELECT id FROM item WHERE grp = %d ORDER BY id LIMIT %d", r.Intn(17), 1+r.Intn(100)), false)
				case k < 14: // a cached write over 1 to 5 of the session's own rows
					run(s, tallies[g], fmt.Sprintf("UPDATE item SET name = 'n%d' WHERE id >= %d AND id < %d", i, own, own+1+r.Intn(5)), false)
				case k < 15: // a cached write that fails in the executor
					run(s, tallies[g], fmt.Sprintf("INSERT INTO item VALUES (%d, 0, 'dup')", own), true)
				case k < 16:
					run(s, tallies[g], fmt.Sprintf("SELECT nosuch FROM item WHERE id = %d", i), true) // fails in the optimizer
				case k < 17:
					run(s, tallies[g], fmt.Sprintf("SELECT 'open %d", i), true) // fails in the lexer
				case k < 18: // never cached
					run(s, tallies[g], "SET PARALLEL 1", false)
				case k < 19:
					run(s, tallies[g], "EXPLAIN SELECT name FROM item WHERE grp = 3", false)
				default:
					fresh := source.NewSession()
					run(fresh, tallies[g], sampled, false)
					fresh.Close()
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	// after paces a background goroutine: it returns once n more
	// statements have executed, or false when the sessions are done.
	after := func(n int64) bool {
		for due := executed.Load() + n; executed.Load() < due; time.Sleep(200 * time.Microsecond) {
			select {
			case <-stop:
				return false
			default:
			}
		}
		return true
	}
	var bg sync.WaitGroup
	bg.Add(2)
	tallies[sessions] = map[uint64]*cost{}
	go func() { // DDL: each statement drops the prepared cache and changes plans
		defer bg.Done()
		s := source.NewSession()
		defer s.Close()
		for i := 0; after(300); i++ {
			run(s, tallies[sessions], []string{"CREATE INDEX item_grp ON item (grp)", "CREATE STATISTICS FOR item", "DROP INDEX item_grp"}[i%3], false)
		}
	}()
	go func() {
		defer bg.Done()
		for after(150) {
			d.Poll() // fails whenever the 7th Exec falls into it: that is the point
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()
	if t.Failed() {
		return
	}
	if _, _, evictions := mon.TableOps(); evictions == 0 || source.Stats().StmtCacheInvalidations == 0 || flaky.failed.Load() == 0 || d.Stats().PollErrors == 0 {
		t.Errorf("the churn did not happen: %d table evictions, %d cache invalidations, %d failed Execs, daemon %+v",
			evictions, source.Stats().StmtCacheInvalidations, flaky.failed.Load(), d.Stats())
	}

	// Heal, then persist what the monitor still holds.
	flaky.every = 0
	if err := d.Poll(); err != nil {
		t.Fatalf("poll after recovery: %v", err)
	}
	if depth, dropped, st := mon.WorkloadDepth(), mon.WorkloadDropped(), d.Stats(); depth != 0 || dropped != 0 || st.CarryoverDepth != 0 || st.CarryoverDrops != 0 {
		t.Errorf("evicted entries waiting %d, drops %d, rows not landed %d, daemon drops %d, want none", depth, dropped, st.CarryoverDepth, st.CarryoverDrops)
	}

	want := map[uint64]*cost{}
	var wantTotal int64
	for _, tally := range tallies {
		for digest, c := range tally {
			w := want[digest]
			if w == nil {
				w = &cost{}
				want[digest] = w
			}
			w.executions += c.executions
			w.rows += c.rows
			w.cpu += c.cpu
			w.errors += c.errors
			wantTotal += c.executions
		}
	}
	ws := target.NewSession()
	defer ws.Close()
	got := map[uint64]*cost{}
	var gotTotal int64
	for _, r := range exec(t, ws, "SELECT hash, SUM(executions), SUM(rows), SUM(exec_cpu), SUM(error) FROM "+workloaddb.Workload+" GROUP BY hash").Rows {
		got[uint64(r[0].I)] = &cost{r[1].I, r[2].I, r[3].I, r[4].I}
		gotTotal += r[1].I
	}
	if total := mon.TotalStatements() - base; gotTotal != total || wantTotal != total {
		t.Errorf("ws_workload holds %d executions, the sessions ran %d, TotalStatements counts %d", gotTotal, wantTotal, total)
	}
	if len(got) != len(want) {
		t.Errorf("ws_workload has %d statements, the sessions ran %d", len(got), len(want))
	}
	update := sqlparser.DigestOf("UPDATE item SET name = 'n0' WHERE id >= 0 AND id < 1")
	if want[update] == nil {
		t.Error("the schedule ran no UPDATE")
	}
	for digest, w := range want {
		g := got[digest]
		if g == nil {
			t.Errorf("digest %x: no ws_workload row, want %+v", digest, *w)
			continue
		}
		// exec_cpu is the executor's count of what a read or write
		// examined: the session cannot see it, but the write examined at
		// least the rows it changed.
		if digest == update && g.cpu < w.rows {
			t.Errorf("the UPDATE's exec_cpu %d is less than the %d rows it changed", g.cpu, w.rows)
		}
		if w.cpu == 0 {
			g.cpu = 0
		}
		if *g != *w {
			t.Errorf("digest %x: ws_workload sums %+v, the sessions saw %+v", digest, *g, *w)
		}
	}
	sd := sqlparser.DigestOf(sampled)
	rows := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE hash = %d", workloaddb.Workload, int64(sd))
	if n, polls := countRows(t, target, rows), d.Stats().Polls; n > polls || n >= want[sd].executions {
		t.Errorf("the sampled shape has %d rows for %d executions over %d polls, want its executions summed", n, want[sd].executions, polls)
	}
	// The shape's entry is evicted and re-created along the way, and
	// stage sums leave with an entry, so a row may count fewer samples
	// than the shape ran, never more.
	if n := countRows(t, target, fmt.Sprintf("SELECT MAX(samples) FROM %s WHERE hash = %d", workloaddb.Stages, int64(sd))); n < 1 || n > want[sd].executions {
		t.Errorf("the sampled shape's ws_stages rows count up to %d samples for %d executions", n, want[sd].executions)
	}
	stmts := map[int64]bool{}
	for _, r := range exec(t, ws, "SELECT hash FROM "+workloaddb.Statements).Rows {
		stmts[r[0].I] = true
	}
	for _, r := range exec(t, ws, "SELECT * FROM "+workloaddb.Stages).Rows {
		hash, wall := r[2].I, r[4].I // after ts_us, last_sample_us
		var sum int64
		for _, v := range r[5:] {
			sum += v.I
		}
		if sum != wall || !stmts[hash] {
			t.Errorf("ws_stages row of %d: stages sum to %d, wall_ns %d, joins ws_statements: %v", hash, sum, wall, stmts[hash])
		}
	}
}
