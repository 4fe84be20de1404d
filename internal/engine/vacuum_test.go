package engine

import (
	"fmt"
	"testing"
)

// Vacuum unit tests: reclaim of superseded and aborted versions,
// clearing of aborted deleters, retirement of aborted ids, and the
// snapshot horizon holding reclamation back.

func TestVacuumReclaimsSupersededVersions(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE v (id INTEGER PRIMARY KEY, n INTEGER)")
	mustExec(t, s, "INSERT INTO v VALUES (1, 0)")
	const updates = 10
	for i := 1; i <= updates; i++ {
		mustExec(t, s, fmt.Sprintf("UPDATE v SET n = %d WHERE id = 1", i))
	}

	w0 := db.WAL().Stats()
	st, err := db.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	// Every superseded version (the insert + all but the last update)
	// has a committed deleter below the horizon: all reclaimable.
	if st.Reclaimed < updates {
		t.Fatalf("Reclaimed = %d, want >= %d superseded versions", st.Reclaimed, updates)
	}
	// The pass leaves nothing staged for the next committer to flush.
	if w1 := db.WAL().Stats(); w1.DurableLSN-w0.DurableLSN != uint64(w1.Appends-w0.Appends) {
		t.Errorf("vacuum appended %d WAL records but made %d durable", w1.Appends-w0.Appends, w1.DurableLSN-w0.DurableLSN)
	}
	res := mustExec(t, s, "SELECT n FROM v WHERE id = 1")
	if len(res.Rows) != 1 || res.Rows[0][0].I != updates {
		t.Fatalf("after vacuum: %v, want n=%d", res.Rows, updates)
	}
	// A second pass over the clean heap finds nothing.
	st2, err := db.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Reclaimed != 0 || st2.Cleared != 0 {
		t.Fatalf("second vacuum reclaimed %d / cleared %d on a clean heap", st2.Reclaimed, st2.Cleared)
	}
	if db.MvccStats().VacuumRuns < 2 {
		t.Errorf("VacuumRuns = %d", db.MvccStats().VacuumRuns)
	}
}

func TestVacuumReclaimsAbortedAndRetiresIDs(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE v (id INTEGER PRIMARY KEY, n INTEGER)")
	mustExec(t, s, "INSERT INTO v VALUES (1, 0)")

	// An aborted transaction leaves an aborted insert (reclaimable), an
	// aborted update (reclaimable new version + the old version's
	// aborted Xmax to clear), all invisible already.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "INSERT INTO v VALUES (2, 2)")
	mustExec(t, s, "UPDATE v SET n = 99 WHERE id = 1")
	s.Rollback()

	before := db.MvccStats()
	if before.AbortedIDs == 0 {
		t.Fatal("no aborted id tracked after rollback")
	}
	st, err := db.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if st.Reclaimed < 2 {
		t.Errorf("Reclaimed = %d, want >= 2 aborted versions", st.Reclaimed)
	}
	if st.Cleared < 1 {
		t.Errorf("Cleared = %d, want >= 1 aborted Xmax wiped", st.Cleared)
	}
	if st.Retired < before.AbortedIDs {
		t.Errorf("Retired = %d, want >= %d", st.Retired, before.AbortedIDs)
	}
	after := db.MvccStats()
	if after.AbortedIDs != 0 {
		t.Errorf("AbortedIDs = %d after retirement, want 0", after.AbortedIDs)
	}
	// The surviving row is intact and the aborted insert stays gone.
	res := mustExec(t, s, "SELECT id, n FROM v ORDER BY id")
	if len(res.Rows) != 1 || res.Rows[0][1].I != 0 {
		t.Fatalf("after vacuum: %v, want only (1,0)", res.Rows)
	}
}

func TestVacuumRespectsOpenSnapshots(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE v (id INTEGER PRIMARY KEY, n INTEGER)")
	mustExec(t, s, "INSERT INTO v VALUES (1, 0)")

	// A reader opens a snapshot that can still see version n=0...
	r := db.NewSession()
	defer r.Close()
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, r, "SELECT n FROM v WHERE id = 1")
	if res.Rows[0][0].I != 0 {
		t.Fatalf("reader setup: %v", res.Rows)
	}

	// ...a writer supersedes it...
	mustExec(t, s, "UPDATE v SET n = 1 WHERE id = 1")

	// ...and vacuum must leave it alone: its deleter is not below the
	// reader's horizon.
	st, err := db.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if st.Reclaimed != 0 {
		t.Fatalf("vacuum reclaimed %d versions a live snapshot can see", st.Reclaimed)
	}
	res = mustExec(t, r, "SELECT n FROM v WHERE id = 1")
	if res.Rows[0][0].I != 0 {
		t.Fatalf("reader's snapshot broken after vacuum: %v", res.Rows)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}

	// Snapshot closed: the horizon advances past the deleter.
	st, err = db.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if st.Reclaimed == 0 {
		t.Fatal("vacuum reclaimed nothing after the snapshot closed")
	}
	res = mustExec(t, s, "SELECT n FROM v WHERE id = 1")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("after vacuum: %v, want n=1", res.Rows)
	}
}
