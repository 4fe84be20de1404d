package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// Snapshot-isolation semantics suite.

func TestNestedBeginErrors(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE nb (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, s, "INSERT INTO nb VALUES (1, 10)")

	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "UPDATE nb SET v = 11 WHERE id = 1")
	if err := s.Begin(); err == nil {
		t.Fatal("nested Begin succeeded")
	} else if !strings.Contains(err.Error(), "BEGIN inside an open transaction") {
		t.Fatalf("nested Begin error = %v", err)
	}
	// The rejected BEGIN must not have damaged the open transaction.
	mustExec(t, s, "UPDATE nb SET v = 12 WHERE id = 1")
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s, "SELECT v FROM nb WHERE id = 1")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 12 {
		t.Fatalf("after commit: %v, want v=12", res.Rows)
	}
}

func TestNoDirtyReads(t *testing.T) {
	db := testDB(t)
	w := db.NewSession()
	defer w.Close()
	mustExec(t, w, "CREATE TABLE dr (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, w, "INSERT INTO dr VALUES (1, 100)")

	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, w, "UPDATE dr SET v = 999 WHERE id = 1")
	mustExec(t, w, "INSERT INTO dr VALUES (2, 999)")

	r := db.NewSession()
	defer r.Close()
	res := mustExec(t, r, "SELECT id, v FROM dr ORDER BY id")
	if len(res.Rows) != 1 || res.Rows[0][1].I != 100 {
		t.Fatalf("reader saw uncommitted writes: %v", res.Rows)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, r, "SELECT id, v FROM dr ORDER BY id")
	if len(res.Rows) != 2 || res.Rows[0][1].I != 999 {
		t.Fatalf("after commit reader saw %v", res.Rows)
	}
}

func TestRepeatableReads(t *testing.T) {
	db := testDB(t)
	setup := db.NewSession()
	mustExec(t, setup, "CREATE TABLE rr (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, setup, "INSERT INTO rr VALUES (1, 1), (2, 2)")
	setup.Close()

	r := db.NewSession()
	defer r.Close()
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	// First statement captures the snapshot.
	first := mustExec(t, r, "SELECT SUM(v) FROM rr")

	// A concurrent transaction commits an update, a delete and an
	// insert. None of it may leak into the open snapshot.
	w := db.NewSession()
	mustExec(t, w, "UPDATE rr SET v = 100 WHERE id = 1")
	mustExec(t, w, "DELETE FROM rr WHERE id = 2")
	mustExec(t, w, "INSERT INTO rr VALUES (3, 1000)")
	w.Close()

	again := mustExec(t, r, "SELECT SUM(v) FROM rr")
	if first.Rows[0][0].I != 3 || again.Rows[0][0].I != 3 {
		t.Fatalf("repeatable read violated: first=%v again=%v, want 3",
			first.Rows[0][0], again.Rows[0][0])
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	// A fresh snapshot sees the committed state: v=100 + v=1000.
	fresh := mustExec(t, r, "SELECT SUM(v) FROM rr")
	if fresh.Rows[0][0].I != 1100 {
		t.Fatalf("post-commit read = %v, want 1100", fresh.Rows[0][0])
	}
}

// TestFirstUpdaterWinsWithoutBlocking: a transaction whose snapshot
// predates a *committed* concurrent update conflicts immediately on its
// own write — no lock wait is involved, the version recheck alone
// detects the superseded row. (The blocking variant, where the first
// updater is still in flight, is TestTransactionHoldsLocks.)
func TestFirstUpdaterWinsWithoutBlocking(t *testing.T) {
	db := testDB(t)
	setup := db.NewSession()
	mustExec(t, setup, "CREATE TABLE fu (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, setup, "INSERT INTO fu VALUES (1, 0)")
	setup.Close()

	s1 := db.NewSession()
	defer s1.Close()
	if err := s1.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1, "SELECT v FROM fu WHERE id = 1") // capture snapshot

	// s2 updates and commits while s1's snapshot is open.
	s2 := db.NewSession()
	mustExec(t, s2, "UPDATE fu SET v = 1 WHERE id = 1")
	s2.Close()

	_, err := s1.Exec("UPDATE fu SET v = 2 WHERE id = 1")
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("stale update: got %v, want ErrWriteConflict", err)
	}
	s1.Rollback()

	// The loser's write is invisible; the winner's survives.
	res := mustExec(t, s1, "SELECT v FROM fu WHERE id = 1")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("v = %v after conflict, want the winner's 1", res.Rows[0][0])
	}
	if db.MvccStats().WriteConflicts == 0 {
		t.Error("WriteConflicts counter not bumped")
	}
}

// TestWriteSkewAnomaly documents the anomaly snapshot isolation
// permits: two transactions each read an invariant's inputs, then
// write to *disjoint* rows — no write-write conflict fires, both
// commit, and the combined result violates the constraint each saw
// holding. This is expected SI behavior (not serializability); the
// test pins it down so a semantics change is a conscious decision.
func TestWriteSkewAnomaly(t *testing.T) {
	db := testDB(t)
	setup := db.NewSession()
	mustExec(t, setup, "CREATE TABLE oncall (id INTEGER PRIMARY KEY, on_duty INTEGER)")
	mustExec(t, setup, "INSERT INTO oncall VALUES (1, 1), (2, 1)")
	setup.Close()

	s1 := db.NewSession()
	s2 := db.NewSession()
	defer s1.Close()
	defer s2.Close()

	// Both check the invariant "at least one doctor stays on duty"...
	for _, s := range []*Session{s1, s2} {
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		res := mustExec(t, s, "SELECT SUM(on_duty) FROM oncall")
		if res.Rows[0][0].I < 2 {
			t.Fatalf("setup: %v on duty", res.Rows[0][0])
		}
	}
	// ...then each takes a different doctor off duty. Disjoint write
	// sets: neither conflicts, both commit.
	mustExec(t, s1, "UPDATE oncall SET on_duty = 0 WHERE id = 1")
	mustExec(t, s2, "UPDATE oncall SET on_duty = 0 WHERE id = 2")
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s1, "SELECT SUM(on_duty) FROM oncall")
	if res.Rows[0][0].I != 0 {
		t.Fatalf("SUM(on_duty) = %v; SI write skew should have allowed 0", res.Rows[0][0])
	}
}

func TestRollbackLeavesNoTrace(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE rb (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, s, "INSERT INTO rb VALUES (1, 1)")

	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "UPDATE rb SET v = 2 WHERE id = 1")
	mustExec(t, s, "INSERT INTO rb VALUES (2, 2)")
	mustExec(t, s, "DELETE FROM rb WHERE id = 1")
	s.Rollback()

	res := mustExec(t, s, "SELECT id, v FROM rb ORDER BY id")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 || res.Rows[0][1].I != 1 {
		t.Fatalf("after rollback: %v, want the original (1,1)", res.Rows)
	}
	if db.MvccStats().TxnAborts == 0 {
		t.Error("TxnAborts counter not bumped")
	}
}

// TestMvccStorm is the -race stress: concurrent transfer transactions,
// snapshot readers asserting the conserved invariant, and a vacuum
// loop reclaiming behind them, all against one table. Run under -race
// in CI.
func TestMvccStorm(t *testing.T) {
	db := testDB(t)
	setup := db.NewSession()
	mustExec(t, setup, "CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)")
	const accounts, initial = 8, 100
	for i := 0; i < accounts; i++ {
		mustExec(t, setup, fmt.Sprintf("INSERT INTO acct VALUES (%d, %d)", i, initial))
	}
	setup.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers: move 1 unit between two accounts per transaction,
	// retrying conflicts. The invariant: SUM(bal) is conserved.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				from, to := (w+i)%accounts, (w+i+1+w%3)%accounts
				if from == to {
					continue
				}
				if err := s.Begin(); err != nil {
					t.Error(err)
					return
				}
				_, err := s.Exec(fmt.Sprintf("UPDATE acct SET bal = bal - 1 WHERE id = %d", from))
				if err == nil {
					_, err = s.Exec(fmt.Sprintf("UPDATE acct SET bal = bal + 1 WHERE id = %d", to))
				}
				if err != nil {
					s.Rollback()
					if !errors.Is(err, ErrWriteConflict) {
						t.Error(err)
						return
					}
					continue
				}
				if err := s.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Readers: every snapshot must see the conserved total.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Exec("SELECT SUM(bal) FROM acct")
				if err != nil {
					t.Error(err)
					return
				}
				if got := res.Rows[0][0].I; got != accounts*initial {
					t.Errorf("reader saw SUM(bal) = %d, want %d (torn snapshot)", got, accounts*initial)
					return
				}
			}
		}(r)
	}
	// Vacuum races the whole thing.
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
				t.Errorf("vacuum: %v", err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()

	s := db.NewSession()
	defer s.Close()
	res := mustExec(t, s, "SELECT SUM(bal) FROM acct")
	if res.Rows[0][0].I != accounts*initial {
		t.Fatalf("final SUM(bal) = %v, want %d", res.Rows[0][0], accounts*initial)
	}
	if st := db.LockStats(); st.Held != 0 || st.Waiting != 0 {
		t.Fatalf("locks leaked: %+v", st)
	}
	ms := db.MvccStats()
	if ms.InflightTxns != 0 || ms.ActiveSnapshots != 0 {
		t.Fatalf("quiesced but inflight=%d snapshots=%d", ms.InflightTxns, ms.ActiveSnapshots)
	}
}
