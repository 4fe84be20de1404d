package engine

import (
	"errors"
	"testing"
	"time"
)

// ddlDeadline bounds every wait in the DDL deadlock regressions: a
// statement that would hang forever fails the test after it instead.
const ddlDeadline = 3 * time.Second

// async runs sql on s in the background.
func async(s *Session, sql string) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := s.Exec(sql)
		done <- err
	}()
	return done
}

// await returns what done delivers, failing the test when it does not
// deliver within ddlDeadline.
func await(t *testing.T, done <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(ddlDeadline):
		t.Fatalf("%s: still blocked after %v", what, ddlDeadline)
		return nil
	}
}

// awaitWaiting returns once the lock counters show a waiter beyond the
// given count.
func awaitWaiting(t *testing.T, db *DB, before int, what string) {
	t.Helper()
	for deadline := time.Now().Add(ddlDeadline); db.LockStats().Waiting == before; {
		if time.Now().After(deadline) {
			t.Fatalf("%s never waited", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDDLWaitsOutOpenTransaction: a DDL on a table an open transaction
// has written waits for the transaction, and the transaction keeps
// running — on other tables and on that one — until it commits and lets
// the DDL through. A DDL that shut the WAL for everyone while it waited
// would park the transaction's next write behind itself: a deadlock no
// wait-for graph sees.
func TestDDLWaitsOutOpenTransaction(t *testing.T) {
	db := testDB(t)
	setup := db.NewSession()
	defer setup.Close()
	mustExec(t, setup, "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER)")
	mustExec(t, setup, "CREATE TABLE u (id INTEGER PRIMARY KEY, a INTEGER)")
	mustExec(t, setup, "INSERT INTO t VALUES (1, 10), (2, 20)")

	tx, ddl := db.NewSession(), db.NewSession()
	defer tx.Close()
	defer ddl.Close()
	if err := tx.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, tx, "INSERT INTO t VALUES (3, 30)")

	waiting := db.LockStats().Waiting
	ddlDone := async(ddl, "CREATE INDEX t_a ON t (a)")
	awaitWaiting(t, db, waiting, "CREATE INDEX behind the open transaction")
	// A session that holds nothing queues behind the waiting DDL, so new
	// readers cannot starve it.
	reader := db.NewSession()
	defer reader.Close()
	waiting = db.LockStats().Waiting
	readerDone := async(reader, "SELECT COUNT(*) FROM t")
	awaitWaiting(t, db, waiting, "a new reader of the DDL's table")

	if err := await(t, async(tx, "INSERT INTO u VALUES (1, 1)"), "the transaction's INSERT on another table"); err != nil {
		t.Fatal(err)
	}
	if err := await(t, async(tx, "INSERT INTO t VALUES (4, 40)"), "the transaction's INSERT on the DDL's table"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ddlDone:
		t.Fatalf("CREATE INDEX finished (%v) while a transaction that wrote the table was open", err)
	default:
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := await(t, ddlDone, "CREATE INDEX after the commit"); err != nil {
		t.Fatal(err)
	}
	if err := await(t, readerDone, "the reader after the DDL"); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, setup, "SELECT id FROM t WHERE a >= 30 ORDER BY id")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 3 || res.Rows[1][0].I != 4 {
		t.Errorf("rows through the new index: %v, want ids 3 and 4", res.Rows)
	}
}

// TestDDLBehindRowLockChain: an autocommit UPDATE parked on a row lock
// of an open transaction must not hold up a DDL on an unrelated table,
// and that DDL must not hold up the transaction's next write. Were the
// parked UPDATE to hold its WAL unit while it waits, the DDL would wait
// for it, the transaction's next write would wait behind the DDL, and
// the UPDATE would wait for the transaction: a cycle through the WAL
// that no wait-for graph sees.
func TestDDLBehindRowLockChain(t *testing.T) {
	db := testDB(t)
	setup := db.NewSession()
	defer setup.Close()
	mustExec(t, setup, "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER)")
	mustExec(t, setup, "CREATE TABLE u (id INTEGER PRIMARY KEY, n INTEGER)")
	mustExec(t, setup, "INSERT INTO t VALUES (1, 10)")
	mustExec(t, setup, "INSERT INTO u VALUES (1, 0), (2, 0)")

	e, a, ddl := db.NewSession(), db.NewSession(), db.NewSession()
	defer e.Close()
	defer a.Close()
	defer ddl.Close()
	if err := e.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "UPDATE u SET n = n + 1 WHERE id = 1")

	waiting := db.LockStats().Waiting
	aDone := async(a, "UPDATE u SET n = n + 1 WHERE id = 1")
	awaitWaiting(t, db, waiting, "the autocommit UPDATE behind the row lock")
	ddlDone := async(ddl, "CREATE INDEX t_a ON t (a)")
	time.Sleep(50 * time.Millisecond) // let the DDL reach whatever it waits for

	if err := await(t, async(e, "UPDATE u SET n = n + 1 WHERE id = 2"), "the transaction's next UPDATE"); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := await(t, aDone, "the parked UPDATE after the commit"); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("parked UPDATE: %v, want a write conflict", err)
	}
	if err := await(t, ddlDone, "CREATE INDEX on the unrelated table"); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, setup, "SELECT id, n FROM u ORDER BY id")
	if len(res.Rows) != 2 || res.Rows[0][1].I != 1 || res.Rows[1][1].I != 1 {
		t.Errorf("u after the chain: %v, want n = 1 on both rows", res.Rows)
	}
}
