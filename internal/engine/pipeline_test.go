package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The executor has one pipeline; TestOperatorGolden holds it to the
// recorded reference on a quiet database. These tests hold it to its own
// serial results while other sessions write, and check that a statement
// that stops early — a LIMIT, an error — leaves nothing pinned.

// assertSameRows compares result sets: exact sequence when the query
// fixes an order, multiset equality otherwise.
func assertSameRows(t *testing.T, sql string, want, got *Result) {
	t.Helper()
	a, b := canonRows(want.Rows), canonRows(got.Rows)
	if !strings.Contains(strings.ToUpper(sql), "ORDER BY") {
		sort.Strings(a)
		sort.Strings(b)
	}
	if len(a) != len(b) {
		t.Fatalf("%s:\nwant %d rows, got %d rows", sql, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s:\nrow %d differs:\nwant %q\ngot  %q", sql, i, a[i], b[i])
		}
	}
}

// TestPinnedSnapshotUnderConcurrentWriters: a session pins a snapshot
// and records its results; writers then keep committing new versions,
// leave transactions in flight, and roll others back. The heap comes to
// hold versions of every visibility class — committed-before-snapshot,
// committed-after, in-flight, aborted, and self-deleted — and the scan
// must classify all of them the same way every time: the rows the
// pinned snapshot saw before the churn, on every later execution.
func TestPinnedSnapshotUnderConcurrentWriters(t *testing.T) {
	db := testDB(t)
	setup := db.NewSession()
	mustExec(t, setup, "CREATE TABLE eq (id INTEGER PRIMARY KEY, grp INTEGER, v INTEGER)")
	var vals []string
	for i := 0; i < 400; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, %d)", i, i%7, i))
	}
	mustExec(t, setup, "INSERT INTO eq (id, grp, v) VALUES "+strings.Join(vals, ", "))
	setup.Close()

	// Two open transactions leave in-flight versions on disk for the
	// whole comparison; one of them rolls back halfway.
	pend1, pend2 := db.NewSession(), db.NewSession()
	defer pend1.Close()
	defer pend2.Close()
	for _, p := range []*Session{pend1, pend2} {
		if err := p.Begin(); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, pend1, "UPDATE eq SET v = -1 WHERE id < 50")
	mustExec(t, pend2, "DELETE FROM eq WHERE id >= 350")

	r := db.NewSession()
	defer r.Close()
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	// Pin the snapshot and take the serial reference results.
	queries := []string{
		"SELECT COUNT(*), SUM(v) FROM eq",
		"SELECT grp, COUNT(*), SUM(v) FROM eq GROUP BY grp",
		"SELECT id, v FROM eq WHERE v < 60 ORDER BY id",
		"SELECT id FROM eq WHERE id >= 340 ORDER BY id",
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		want[i] = mustExec(t, r, q)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // committed churn after the snapshot
		defer wg.Done()
		w := db.NewSession()
		defer w.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			switch i % 3 {
			case 0:
				_, err = w.Exec(fmt.Sprintf("UPDATE eq SET v = v + 100 WHERE id = %d", 100+i%200))
			case 1:
				_, err = w.Exec(fmt.Sprintf("INSERT INTO eq VALUES (%d, 0, 0)", 1000+i))
			default: // aborted churn: versions that must never surface
				if err = w.Begin(); err == nil {
					_, err = w.Exec(fmt.Sprintf("UPDATE eq SET v = -7 WHERE id = %d", 100+i%200))
					w.Rollback()
				}
			}
			if err != nil && !errors.Is(err, ErrWriteConflict) {
				t.Error(err)
				return
			}
		}
	}()

	for round := 0; round < 30; round++ {
		if round == 7 {
			pend2.Rollback() // its deletes stay invisible either way
		}
		for i, q := range queries {
			assertSameRows(t, q, want[i], mustExec(t, r, q))
		}
	}
	close(stop)
	wg.Wait()

	// The pinned snapshot saw the original table the whole time.
	res := mustExec(t, r, "SELECT COUNT(*) FROM eq")
	if res.Rows[0][0].I != 400 {
		t.Fatalf("pinned snapshot counted %v rows, want 400", res.Rows[0][0])
	}
	if err := pend1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineConcurrentSessions hammers the pipeline from many
// sessions at once (run under -race in CI): per-execution state — scan
// batches, decode arenas, expression scratch, join output arenas — must
// never be shared across executions of one cached plan. Every session
// must get the serial result.
func TestPipelineConcurrentSessions(t *testing.T) {
	db := testDB(t)
	setup := db.NewSession()
	setupPeople(t, setup)
	const aggQ = "SELECT city, COUNT(*) FROM people WHERE age < 40 GROUP BY city"
	const joinQ = "SELECT p.id, q.name FROM people p JOIN people q ON p.id = q.id WHERE p.age = 33 ORDER BY p.id LIMIT 25"
	wantAgg, wantJoin := mustExec(t, setup, aggQ), mustExec(t, setup, joinQ)
	setup.Close()

	const goroutines = 8
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for i := 0; i < iters; i++ {
				id := (g*iters + i) % peopleRows
				res, err := s.Exec(fmt.Sprintf("SELECT name FROM people WHERE id = %d", id))
				if err == nil && (len(res.Rows) != 1 || res.Rows[0][0].S != fmt.Sprintf("person%04d", id)) {
					err = fmt.Errorf("point select %d: got %v", id, res.Rows)
				}
				for q, want := range map[string]*Result{aggQ: wantAgg, joinQ: wantJoin} {
					if err != nil {
						break
					}
					if res, err = s.Exec(q); err == nil &&
						strings.Join(canonRows(res.Rows), "|") != strings.Join(canonRows(want.Rows), "|") {
						err = fmt.Errorf("%s: got %v, want %v", q, res.Rows, want.Rows)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestLimitReleasesPins: a statement that stops before its inputs are
// exhausted — a LIMIT satisfied by the first batch of a multi-page scan
// or of a join, an expression failing halfway down the table — must
// leave no page pinned and no heap latch held once Exec returns.
func TestLimitReleasesPins(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE wide (id INTEGER PRIMARY KEY, grp INTEGER, pad VARCHAR(64))")
	const rows = 6000
	for base := 0; base < rows; base += 500 {
		var vals []string
		for i := base; i < base+500; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, '%060d')", i, i%10, i))
		}
		mustExec(t, s, "INSERT INTO wide (id, grp, pad) VALUES "+strings.Join(vals, ", "))
	}
	if pages := db.handle("wide").heap.Pages(); pages < 32 {
		t.Fatalf("wide has %d pages: one batch would cover the table", pages)
	}

	for _, tc := range []struct {
		sql  string
		rows int    // expected result size; -1: the statement must fail
		fail string // with this error
	}{
		{sql: "SELECT id FROM wide LIMIT 3", rows: 3},
		{sql: "SELECT id, pad FROM wide WHERE grp = 4 LIMIT 5 OFFSET 2", rows: 5},
		{sql: "SELECT DISTINCT grp FROM wide LIMIT 4", rows: 4},
		{sql: "SELECT a.id, b.id FROM wide a JOIN wide b ON a.grp = b.grp LIMIT 7", rows: 7},
		{sql: "SELECT a.id, b.pad FROM wide a JOIN wide b ON b.id = a.id + 1 WHERE a.grp = 3 LIMIT 7", rows: 7},
		{sql: "SELECT a.id, b.id FROM wide a, wide b WHERE b.id < 3 LIMIT 2", rows: 2},
		{sql: "SELECT id, 100 / (id - 2500) FROM wide", rows: -1, fail: "division by zero"},
		{sql: "SELECT a.id FROM wide a JOIN wide b ON a.grp = b.grp WHERE 7 / (b.id - 2500) > a.id", rows: -1, fail: "division by zero"},
		{sql: "SELECT grp, SUM(100 / (id - 2500)) FROM wide GROUP BY grp", rows: -1, fail: "division by zero"},
	} {
		for _, q := range []string{tc.sql, "EXPLAIN ANALYZE " + tc.sql} {
			res, err := s.Exec(q)
			switch {
			case tc.rows < 0 && (err == nil || !strings.Contains(err.Error(), tc.fail)):
				t.Errorf("%s: err = %v, want %q", q, err, tc.fail)
			case tc.rows >= 0 && err != nil:
				t.Errorf("%s: %v", q, err)
			case tc.rows >= 0 && q == tc.sql && len(res.Rows) != tc.rows:
				t.Errorf("%s: %d rows, want %d", q, len(res.Rows), tc.rows)
			}
			if n := db.pool.PinnedFrames(); n != 0 {
				t.Fatalf("%s: %d frames still pinned after Exec", q, n)
			}
		}
	}
	// No scan kept the heap's read latch either: a writer gets through.
	mustExec(t, s, "INSERT INTO wide VALUES (100000, 0, 'x')")
}
