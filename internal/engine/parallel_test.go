package engine

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/sqltypes"
)

// Morsel-driven parallelism must be observationally equivalent to
// serial execution: same groups in the same order, same integer
// aggregates bit for bit, float aggregates equal up to summation
// order, same EXPLAIN ANALYZE actuals, and no leaked page pins — even
// under concurrent writers and vacuum, and even when a worker fails
// mid-scan.

// bigRows sizes the parallel fixture: large enough that the heap
// spans several morsels (64 pages each) so the parallel path actually
// fans out. The tests assert the page count rather than trust the
// arithmetic.
const bigRows = 20000

// setupBig builds the morsel fixture and returns a session on it.
func setupBig(t *testing.T, db *DB) *Session {
	t.Helper()
	s := db.NewSession()
	t.Cleanup(s.Close)
	mustExec(t, s, `CREATE TABLE big (id INTEGER PRIMARY KEY, grp INTEGER, v INTEGER, f FLOAT)`)
	for base := 0; base < bigRows; base += 200 {
		var vals []string
		for i := base; i < base+200 && i < bigRows; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d, %d.25)", i, i%13, i%97, i%31))
		}
		mustExec(t, s, "INSERT INTO big (id, grp, v, f) VALUES "+strings.Join(vals, ", "))
	}
	pages := db.handle("big").heap.Pages()
	if pages < 3*64 {
		t.Fatalf("fixture heap has %d pages, want >= %d so several morsels engage", pages, 3*64)
	}
	return s
}

func bigDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Config{Dir: t.TempDir(), PoolPages: 1024, Monitor: monitor.New(monitor.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// runBothParallel executes sql at 8 workers and again serially on the
// same session, so both runs share one cached plan.
func runBothParallel(t *testing.T, s *Session, sql string) (par, ser *Result) {
	t.Helper()
	s.SetParallel(8)
	par = mustExec(t, s, sql)
	s.SetParallel(1)
	ser = mustExec(t, s, sql)
	return par, ser
}

// TestParallelSerialEquivalence is the correctness contract of the
// morsel path: grouped aggregates computed by 8 workers must match the
// serial plan — group order and integer aggregates exactly, float
// sums and averages to within summation-reordering error.
func TestParallelSerialEquivalence(t *testing.T) {
	db := bigDB(t)
	s := setupBig(t, db)

	queries := []string{
		"SELECT grp, COUNT(*), SUM(v), MIN(v), MAX(v) FROM big GROUP BY grp",
		"SELECT grp, COUNT(*) FROM big WHERE v < 40 GROUP BY grp",
		"SELECT COUNT(*), SUM(v) FROM big",
		"SELECT grp, SUM(f), AVG(f), COUNT(f) FROM big WHERE id >= 100 GROUP BY grp",
		"SELECT grp, MIN(f), MAX(f) FROM big GROUP BY grp HAVING COUNT(*) > 10",
		"SELECT COUNT(*) FROM big WHERE v = 96",
	}
	for _, q := range queries {
		par, ser := runBothParallel(t, s, q)
		if len(par.Rows) != len(ser.Rows) {
			t.Fatalf("%s:\nparallel %d rows, serial %d rows", q, len(par.Rows), len(ser.Rows))
		}
		for i := range ser.Rows {
			if len(par.Rows[i]) != len(ser.Rows[i]) {
				t.Fatalf("%s: row %d width differs", q, i)
			}
			for j, sv := range ser.Rows[i] {
				pv := par.Rows[i][j]
				if pv.T != sv.T {
					t.Fatalf("%s: row %d col %d: parallel type %v, serial type %v", q, i, j, pv.T, sv.T)
				}
				// Float SUM/AVG accumulate in worker-scheduling order, so
				// parallel and serial may differ in the last few ULPs;
				// everything else must be bit-exact.
				if sv.T == sqltypes.Float {
					if !floatClose(pv.F, sv.F) {
						t.Errorf("%s: row %d col %d: parallel %v, serial %v", q, i, j, pv.F, sv.F)
					}
					continue
				}
				if pv != sv {
					t.Errorf("%s: row %d col %d: parallel %+v, serial %+v", q, i, j, pv, sv)
				}
			}
		}
	}
	if db.Stats().ParallelQueries == 0 {
		t.Fatal("no query ran the parallel path; fixture or fan-out guard is wrong")
	}
	if n := db.pool.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames still pinned after parallel queries", n)
	}
}

func floatClose(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

// TestParallelExplainAnalyzeActuals pins trace accounting under
// parallelism: per-operator actual rows, Next calls, and the monitor
// tuple count are aggregated across workers into exactly the numbers
// the serial plan reports. (Times may differ; counts may not.)
func TestParallelExplainAnalyzeActuals(t *testing.T) {
	db := bigDB(t)
	s := setupBig(t, db)

	queries := []string{
		"SELECT grp, COUNT(*), SUM(v) FROM big GROUP BY grp",
		"SELECT grp, COUNT(*) FROM big WHERE v < 25 GROUP BY grp",
		"SELECT COUNT(*) FROM big",
	}
	for _, q := range queries {
		par, ser := runBothParallel(t, s, "EXPLAIN ANALYZE "+q)
		parC, serC := fmt.Sprint(analyzeActuals(t, par)), fmt.Sprint(analyzeActuals(t, ser))
		if parC != serC {
			t.Errorf("%s:\nparallel actuals: %s\nserial actuals:   %s", q, parC, serC)
		}
	}
}

// TestMorselStormUnderWriters runs 8-worker aggregations against
// group-atomic updaters and a vacuum loop (under -race in CI). Every
// UPDATE bumps one whole group in a single statement, so snapshot
// isolation guarantees each scan sees a group either entirely bumped
// or entirely not: MIN(v) == MAX(v) within a group at all times, and
// group counts never move. A torn morsel boundary or a worker reading
// across two snapshots breaks the invariant immediately.
func TestMorselStormUnderWriters(t *testing.T) {
	db := bigDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, `CREATE TABLE storm (id INTEGER PRIMARY KEY, grp INTEGER, v INTEGER)`)
	const stormRows = 16000
	const groups = 4
	for base := 0; base < stormRows; base += 200 {
		var vals []string
		for i := base; i < base+200 && i < stormRows; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, 0)", i, i%groups))
		}
		mustExec(t, s, "INSERT INTO storm (id, grp, v) VALUES "+strings.Join(vals, ", "))
	}
	if pages := db.handle("storm").heap.Pages(); pages < 2*64 {
		t.Fatalf("storm heap has %d pages, want >= %d", pages, 2*64)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, groups+2)

	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := db.NewSession()
			defer w.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := w.Exec(fmt.Sprintf("UPDATE storm SET v = v + 1 WHERE grp = %d", g)); err != nil {
					errs <- fmt.Errorf("writer %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Vacuum(); err != nil {
				errs <- fmt.Errorf("vacuum: %w", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	r := db.NewSession()
	defer r.Close()
	r.SetParallel(8)
	perGroup := int64(stormRows / groups)
	for round := 0; round < 40; round++ {
		res, err := r.Exec("SELECT grp, COUNT(*), MIN(v), MAX(v) FROM storm GROUP BY grp")
		if err != nil {
			t.Error(err)
			break
		}
		if len(res.Rows) != groups {
			t.Errorf("round %d: %d groups, want %d", round, len(res.Rows), groups)
			break
		}
		for _, row := range res.Rows {
			g, n, lo, hi := row[0].I, row[1].I, row[2].I, row[3].I
			if n != perGroup {
				t.Errorf("round %d: group %d count %d, want %d", round, g, n, perGroup)
			}
			if lo != hi {
				t.Errorf("round %d: group %d torn read: MIN(v)=%d MAX(v)=%d", round, g, lo, hi)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := db.pool.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames still pinned after storm", n)
	}
}

// TestParallelErrorReleasesPins forces a mid-scan evaluation error in
// one worker (division by zero on a single row deep in the heap) and
// checks the error surfaces through the merge and that every worker
// unwound its pins.
func TestParallelErrorReleasesPins(t *testing.T) {
	db := bigDB(t)
	s := setupBig(t, db)
	s.SetParallel(8)

	_, err := s.Exec(fmt.Sprintf("SELECT SUM(100 / (id - %d)) FROM big", bigRows-50))
	if err == nil {
		t.Fatal("expected division-by-zero error from parallel aggregation")
	}
	if !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("unexpected error: %v", err)
	}
	if n := db.pool.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames still pinned after failed parallel query", n)
	}

	// The session stays usable after a worker failure.
	res := mustExec(t, s, "SELECT COUNT(*) FROM big")
	if res.Rows[0][0].I != bigRows {
		t.Fatalf("count after failure = %v, want %d", res.Rows[0][0], bigRows)
	}
}

// TestMorselSpeedup asserts the headline acceptance criterion: on a
// machine with enough cores, 8 workers beat serial by >= 2x on the
// scan-heavy aggregate. On fewer than 4 cores the workers time-slice
// one CPU and no speedup is possible, so the test logs and skips.
func TestMorselSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d: morsel speedup needs >= 4 cores; skipping (measured, not assumed, on multi-core CI)", runtime.GOMAXPROCS(0))
	}
	db := bigDB(t)
	s := setupBig(t, db)
	const q = "SELECT grp, COUNT(*), SUM(v), SUM(f) FROM big WHERE v < 90 GROUP BY grp"

	best := func(parallel, reps int) time.Duration {
		s.SetParallel(parallel)
		mustExec(t, s, q) // warm plan cache and buffer pool
		b := time.Duration(math.MaxInt64)
		for i := 0; i < reps; i++ {
			start := time.Now()
			mustExec(t, s, q)
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}
	serial := best(1, 5)
	par := best(8, 5)
	t.Logf("serial best %v, 8-worker best %v (%.2fx)", serial, par, float64(serial)/float64(par))
	if par*2 > serial {
		t.Errorf("8-worker run %v not >= 2x faster than serial %v", par, serial)
	}
}

// TestParallelPoolPressure shrinks the buffer pool well below the
// table size so all 8 workers continuously evict each other's pages;
// the query must still complete correctly and release every pin.
func TestParallelPoolPressure(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir(), PoolPages: 96, Monitor: monitor.New(monitor.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := setupBig(t, db)
	s.SetParallel(8)

	res := mustExec(t, s, "SELECT COUNT(*), SUM(v) FROM big")
	if res.Rows[0][0].I != bigRows {
		t.Fatalf("count = %v, want %d", res.Rows[0][0], bigRows)
	}
	if n := db.pool.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames still pinned under pool pressure", n)
	}
}

// wideRows sizes the small-pool fixture: past two 64-page morsels, so
// the morsel path would engage at any degree above 1.
const wideRows = 6000

// openWide opens a database with a poolPages-frame pool holding the
// wideRows-row table wide.
func openWide(t *testing.T, poolPages int) *DB {
	t.Helper()
	db, err := Open(Config{Dir: t.TempDir(), PoolPages: poolPages, Monitor: monitor.New(monitor.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE wide (id INTEGER PRIMARY KEY, pad VARCHAR(256))")
	pad := strings.Repeat("x", 200)
	for base := 0; base < wideRows; base += 100 {
		var vals []string
		for i := base; i < base+100; i++ {
			vals = append(vals, fmt.Sprintf("(%d, '%s')", i, pad))
		}
		mustExec(t, s, "INSERT INTO wide (id, pad) VALUES "+strings.Join(vals, ", "))
	}
	if pages := db.handle("wide").heap.Pages(); pages < 2*64 {
		t.Fatalf("fixture heap has %d pages, want >= 128 so the morsel path would engage", pages)
	}
	return db
}

// TestParallelBoundedByPool is the regression test for the pool
// exhaustion at PoolPages 16: eight workers each holding a 16-page pin
// window cannot fit, so the engine must cap the degree by what the
// pool can pin (here: serial) instead of timing out on pin waits.
func TestParallelBoundedByPool(t *testing.T) {
	db := openWide(t, 16)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "SET PARALLEL 8")
	if got := s.effectiveParallel(); got != 1 {
		t.Fatalf("effectiveParallel() = %d on a 16-page pool, want 1", got)
	}
	res := mustExec(t, s, "SELECT COUNT(*) FROM wide")
	if res.Rows[0][0].I != wideRows {
		t.Fatalf("count = %v, want %d", res.Rows[0][0], wideRows)
	}
	if n := db.pool.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames still pinned", n)
	}
}

// TestParallelLeavesPoolHeadroom: at PoolPages 32 the pin windows of
// two workers would cover the whole pool and leave no frame to a
// concurrent session, so the bound keeps one window free. Two sessions
// scanning at SET PARALLEL 2 must both finish, repeatedly.
func TestParallelLeavesPoolHeadroom(t *testing.T) {
	db := openWide(t, 32)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			s.SetParallel(2)
			if got := s.effectiveParallel(); got != 1 {
				t.Errorf("effectiveParallel() = %d on a 32-page pool, want 1", got)
			}
			for round := 0; round < 5; round++ {
				res, err := s.Exec("SELECT COUNT(*) FROM wide")
				if err != nil {
					t.Error(err)
					return
				}
				if res.Rows[0][0].I != wideRows {
					t.Errorf("count = %v, want %d", res.Rows[0][0], wideRows)
				}
			}
		}()
	}
	wg.Wait()
	if n := db.pool.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames still pinned", n)
	}

	// One more window and the second worker fits.
	db.ResizePool(48)
	s := db.NewSession()
	defer s.Close()
	s.SetParallel(8)
	if got := s.effectiveParallel(); got != 2 {
		t.Fatalf("effectiveParallel() = %d on a 48-page pool, want 2", got)
	}
}

// TestSetParallelStatement covers the SQL knob end to end: SET
// PARALLEL changes the session fan-out, out-of-range values clamp,
// and unknown knobs error.
func TestSetParallelStatement(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()

	mustExec(t, s, "SET PARALLEL 8")
	if got := s.Parallel(); got != 8 {
		t.Fatalf("Parallel() = %d after SET PARALLEL 8", got)
	}
	mustExec(t, s, "SET parallel = 1")
	if got := s.Parallel(); got != 1 {
		t.Fatalf("Parallel() = %d after SET parallel = 1", got)
	}
	mustExec(t, s, "SET PARALLEL 0")
	if got := s.Parallel(); got != 1 {
		t.Fatalf("Parallel() = %d after SET PARALLEL 0, want clamp to 1", got)
	}
	mustExec(t, s, "SET PARALLEL 1000")
	if got := s.Parallel(); got != maxSessionParallel {
		t.Fatalf("Parallel() = %d after SET PARALLEL 1000, want clamp to %d", got, maxSessionParallel)
	}
	if _, err := s.Exec("SET NO_SUCH_KNOB 3"); err == nil {
		t.Fatal("SET NO_SUCH_KNOB should error")
	}
}

// TestParallelTelemetry checks the counters flow from executor Ctx
// through the session into DB stats.
func TestParallelTelemetry(t *testing.T) {
	db := bigDB(t)
	s := setupBig(t, db)

	before := db.Stats()
	s.SetParallel(8)
	mustExec(t, s, "SELECT grp, COUNT(*) FROM big GROUP BY grp")
	after := db.Stats()

	if after.ParallelQueries != before.ParallelQueries+1 {
		t.Errorf("ParallelQueries %d -> %d, want +1", before.ParallelQueries, after.ParallelQueries)
	}
	wantMorsels := int64((db.handle("big").heap.Pages() + 63) / 64)
	if got := after.MorselsDispatched - before.MorselsDispatched; got != wantMorsels {
		t.Errorf("MorselsDispatched += %d, want %d", got, wantMorsels)
	}
	if after.ParallelWorkerNanos <= before.ParallelWorkerNanos {
		t.Errorf("ParallelWorkerNanos did not advance: %d -> %d", before.ParallelWorkerNanos, after.ParallelWorkerNanos)
	}

	// Serial runs must not touch the parallel counters.
	s.SetParallel(1)
	mustExec(t, s, "SELECT grp, COUNT(*) FROM big GROUP BY grp")
	final := db.Stats()
	if final.ParallelQueries != after.ParallelQueries {
		t.Errorf("serial run bumped ParallelQueries: %d -> %d", after.ParallelQueries, final.ParallelQueries)
	}
}

// TestSmallTableStaysSerial pins the fan-out guard: a table under two
// morsels' worth of pages never pays parallel overhead, which is what
// keeps 1-worker and small-table performance identical to the
// pre-morsel engine.
func TestSmallTableStaysSerial(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)
	if pages := db.handle("people").heap.Pages(); pages >= 2*64 {
		t.Skipf("people fixture grew to %d pages; small-table guard untestable", pages)
	}

	s.SetParallel(8)
	mustExec(t, s, "SELECT city, COUNT(*) FROM people GROUP BY city")
	if n := db.Stats().ParallelQueries; n != 0 {
		t.Fatalf("small-table aggregate took the parallel path (%d parallel queries)", n)
	}
}
