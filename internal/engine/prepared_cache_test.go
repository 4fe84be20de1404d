package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/monitor"
)

// The statement cache never holds more entries than its capacity,
// whether the entries are distinct shapes or chained variants of one
// shape, and it keeps the recently used ones.
func TestStatementCacheBounded(t *testing.T) {
	const capacity = 8
	db, err := Open(Config{Dir: t.TempDir(), PoolPages: 256, StmtCacheSize: capacity, Monitor: monitor.New(monitor.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)

	hot := "SELECT id FROM people WHERE id = 1"
	hotPlan := mustExec(t, s, hot).Plan
	for i := 0; i < 3*capacity; i++ {
		// One shape with i+1 list members, then one LIMIT variant of a
		// single shape: both kinds of entry count against the bound.
		in := "0"
		for j := 1; j <= i; j++ {
			in += fmt.Sprintf(", %d", j)
		}
		mustExec(t, s, "SELECT id FROM people WHERE age IN ("+in+")")
		mustExec(t, s, fmt.Sprintf("SELECT id FROM people WHERE age > 30 ORDER BY id LIMIT %d", i+1))
		// The LRU clock ticks once per 2^clockShift statements: use the
		// hot entry often enough that every tick sees it.
		for j := 0; j < 1<<clockShift; j++ {
			mustExec(t, s, "SELECT id FROM people WHERE id = 2")
		}
		if n := db.plans.len(); n > capacity {
			t.Fatalf("after %d shapes the cache holds %d entries, capacity %d", 2*(i+1), n, capacity)
		}
	}
	if db.plans.len() != capacity {
		t.Errorf("cache holds %d entries, want it full at %d", db.plans.len(), capacity)
	}
	if mustExec(t, s, hot).Plan != hotPlan {
		t.Error("the entry used throughout was evicted")
	}
}

// Whatever changes the physical design or the statistics drops every
// cached statement: the next execution plans against the new design.
func TestStatementCacheInvalidation(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)

	const q = "SELECT id FROM people WHERE age = 33"
	for _, ddl := range []string{
		"CREATE INDEX people_age ON people (age)",
		"CREATE STATISTICS FOR people",
		"DROP INDEX people_age",
		"MODIFY people TO BTREE ON id",
		"CREATE INDEX people_age2 ON people (age)",
	} {
		before := mustExec(t, s, q).Plan
		if mustExec(t, s, q).Plan != before || db.plans.len() == 0 {
			t.Fatalf("before %s: the statement is not served from the cache", ddl)
		}
		mustExec(t, s, ddl)
		if n := db.plans.len(); n != 0 {
			t.Errorf("%s left %d cached statements", ddl, n)
		}
		if mustExec(t, s, q).Plan == before {
			t.Errorf("after %s the statement still runs the old plan", ddl)
		}
	}
	// The secondary index exists now; a cached plan predating it would
	// still scan.
	if p := mustExec(t, s, q).Plan; len(p.UsedIndexes) == 0 {
		t.Errorf("plan after the index build uses no index:\n%s", p)
	}
}

// Statements that differ only in a literal the parser leaves in the
// text (LIMIT, OFFSET, a positional ORDER BY) have the same shape key
// and never the same entry.
func TestUnboundLiteralsNeverShare(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)

	for round := 0; round < 2; round++ { // second round: every statement is a hit
		for limit := 1; limit <= 4; limit++ {
			res := mustExec(t, s, fmt.Sprintf("SELECT id, age FROM people WHERE age > %d ORDER BY id LIMIT %d", 20+limit, limit))
			if len(res.Rows) != limit {
				t.Fatalf("round %d: LIMIT %d returned %d rows", round, limit, len(res.Rows))
			}
		}
		for pos := 1; pos <= 2; pos++ {
			res := mustExec(t, s, fmt.Sprintf("SELECT age, id FROM people WHERE id < 3 ORDER BY %d DESC", pos))
			if got, want := res.Rows[0][pos-1].I, int64([]int{22, 2}[pos-1]); got != want {
				t.Fatalf("round %d: ORDER BY %d DESC starts with %d, want %d", round, pos, got, want)
			}
		}
	}
	if n := db.plans.len(); n != 6 {
		t.Errorf("6 distinct statements made %d entries", n)
	}
}

// The cache under concurrent use: sessions run a handful of shapes (and
// LIMIT variants of one) with changing literals through a cache too
// small to hold them, while another session keeps invalidating it with
// DDL. Every result must be the one the literals ask for — an entry
// bound to another statement's parameters, or a plan outliving its
// index, shows up as a wrong row — and the race detector watches the
// entries, the eviction clock and the monitor's Shapes.
func TestStatementCacheConcurrent(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir(), PoolPages: 256, StmtCacheSize: 4, Monitor: monitor.New(monitor.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setup := db.NewSession()
	setupPeople(t, setup)
	setup.Close()

	const readers, rounds = 4, 100
	var wg sync.WaitGroup
	stop := make(chan struct{})
	ddls := int64(0) // written by the DDL goroutine, read after wg.Wait
	wg.Add(1)
	go func() { // DDL on the drained table: every statement drops the cache; shapes are published again
		defer wg.Done()
		s := db.NewSession()
		defer s.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Each rebuild changes what a plan may touch: a cached plan
			// that probes the primary B-Tree must not outlive it.
			ddl := []string{"MODIFY people TO BTREE ON id", "CREATE STATISTICS FOR people (age)", "MODIFY people TO HEAP"}[i%3]
			if _, err := s.Exec(ddl); err != nil {
				t.Errorf("%s: %v", ddl, err)
				return
			}
			ddls++
		}
	}()
	var rg sync.WaitGroup
	for g := 0; g < readers; g++ {
		rg.Add(1)
		go func(g int) {
			defer rg.Done()
			s := db.NewSession()
			defer s.Close()
			for i := 0; i < rounds; i++ {
				id := (g*rounds + i*7) % peopleRows
				res, err := s.Exec(fmt.Sprintf("SELECT id, age FROM people WHERE id = %d", id))
				if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != int64(id) {
					t.Errorf("point select %d: %v, %v", id, res, err)
					return
				}
				limit := 1 + i%5
				res, err = s.Exec(fmt.Sprintf("SELECT id FROM people WHERE city = 'berlin' AND id >= %d ORDER BY id LIMIT %d", id, limit))
				if err != nil || len(res.Rows) > limit || (len(res.Rows) > 0 && res.Rows[0][0].I < int64(id)) {
					t.Errorf("limit %d from %d: %v, %v", limit, id, res, err)
					return
				}
				res, err = s.Exec(fmt.Sprintf("SELECT COUNT(*) FROM people WHERE age IN (%d, %d) AND id < 100", 20+i%49, 21+i%49))
				if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 4 {
					t.Errorf("count: %v, %v", res, err)
					return
				}
				if n := db.plans.len(); n > 4 {
					t.Errorf("cache holds %d entries, capacity 4", n)
					return
				}
			}
		}(g)
	}
	rg.Wait()
	close(stop)
	wg.Wait()

	// Nothing the monitor counted got lost between a Shape and the one
	// published after it: every statement of this test references people once —
	// CREATE TABLE, the set-up's INSERTs, the DDL and the SELECTs.
	tf, _, _ := db.Monitor().SnapshotFrequencies()
	if want := 1 + peopleRows/100 + ddls + readers*rounds*3; tf["people"] != want {
		t.Errorf("table frequency %d, want %d (%d DDL statements)", tf["people"], want, ddls)
	}
}

// The cache's cold-path counters: a miss is a statement that ran (or
// tried) the parser — uncacheable statements and failures included — so
// hits are the statements minus the misses; evictions and invalidations
// count entries dropped for capacity and whole-cache drops.
func TestStatementCacheCounters(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir(), PoolPages: 256, StmtCacheSize: 2, Monitor: monitor.New(monitor.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)
	if st := db.Stats(); st.StmtCacheMisses != st.Statements || st.StmtCacheEvictions != 0 {
		t.Fatalf("after a set-up of DDL and bulk inserts: %+v", st)
	}

	base := db.Stats()
	for i := 0; i < 5; i++ {
		mustExec(t, s, fmt.Sprintf("SELECT id FROM people WHERE id = %d", i))
	}
	for _, bad := range []string{"SELECT 'open", "SELEC id FROM people"} {
		if _, err := s.Exec(bad); err == nil {
			t.Fatalf("%s succeeded", bad)
		}
	}
	st := db.Stats()
	if misses, stmts := st.StmtCacheMisses-base.StmtCacheMisses, st.Statements-base.Statements; misses != 3 || stmts-misses != 4 {
		t.Errorf("5 executions of one shape and 2 failures: %d misses of %d statements", misses, stmts)
	}
	mustExec(t, s, "SELECT age FROM people WHERE id = 1")
	mustExec(t, s, "SELECT city FROM people WHERE id = 1") // a third shape in a cache of two
	if got := db.Stats().StmtCacheEvictions; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	inv := db.Stats().StmtCacheInvalidations
	mustExec(t, s, "CREATE STATISTICS FOR people")
	if got := db.Stats().StmtCacheInvalidations; got <= inv {
		t.Errorf("invalidations stayed at %d over CREATE STATISTICS", got)
	}
	if got := db.Stats().StmtCacheStaleReparses; got != 0 {
		t.Errorf("stale re-parses = %d in a single session", got)
	}
}
