package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/monitor"
	"repro/internal/sqlparser"
)

// dmlRows is the size of the twin tables: large enough that the
// optimizer probes an index for a selective predicate.
const dmlRows = 2000

// loadTwins creates ix — BTREE on id, the primary key's unique index and
// a secondary index on (a, b) — and sc, the same columns with no index
// at all, and fills both with the same seeded rows (a is NULL now and
// then).
func loadTwins(t *testing.T, s *Session, rng *rand.Rand) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE ix (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, c VARCHAR(16))")
	mustExec(t, s, "CREATE TABLE sc (id INTEGER, a INTEGER, b INTEGER, c VARCHAR(16))")
	for base := 0; base < dmlRows; base += 200 {
		var vals []string
		for i := base; i < base+200; i++ {
			a := fmt.Sprint(rng.Intn(40))
			if rng.Intn(25) == 0 {
				a = "NULL"
			}
			vals = append(vals, fmt.Sprintf("(%d, %s, %d, 'c%d')", i, a, rng.Intn(100), i%7))
		}
		for _, table := range []string{"ix", "sc"} {
			mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES %s", table, strings.Join(vals, ", ")))
		}
	}
	mustExec(t, s, "MODIFY ix TO BTREE ON id")
	mustExec(t, s, "CREATE INDEX ix_ab ON ix (a, b)")
	mustExec(t, s, "CREATE STATISTICS FOR ix")
}

// dmlCorpus draws n seeded UPDATE/DELETE statements over the table @:
// primary-key equality and ranges, a secondary-index prefix with a
// range and with a residual, NULL probes, predicates matching nothing,
// and an UPDATE moving rows to another key of the secondary index
// followed by writes on the old and the new key.
func dmlCorpus(rng *rand.Rand, n int) []string {
	var out []string
	for len(out) < n {
		k, a, b := rng.Intn(dmlRows), rng.Intn(40), rng.Intn(100)
		switch rng.Intn(11) {
		case 0:
			out = append(out, fmt.Sprintf("UPDATE @ SET b = b + 1 WHERE id = %d", k))
		case 1:
			out = append(out, fmt.Sprintf("DELETE FROM @ WHERE id = %d", k))
		case 2:
			out = append(out, fmt.Sprintf("UPDATE @ SET c = 'r%d' WHERE id >= %d AND id < %d", k%5, k, k+1+rng.Intn(30)))
		case 3:
			out = append(out, fmt.Sprintf("DELETE FROM @ WHERE id BETWEEN %d AND %d", k, k+rng.Intn(8)))
		case 4:
			out = append(out, fmt.Sprintf("UPDATE @ SET c = 'p%d' WHERE a = %d AND b > %d", b%3, a, b))
		case 5:
			out = append(out, fmt.Sprintf("UPDATE @ SET b = b + 2 WHERE a = %d AND c = 'c%d'", a, k%7))
		case 6:
			out = append(out, fmt.Sprintf("DELETE FROM @ WHERE a = %d AND b = %d AND c <> 'zz'", a, b))
		case 7:
			out = append(out, "UPDATE @ SET b = 0 WHERE a = NULL", "DELETE FROM @ WHERE id = NULL")
		case 8:
			out = append(out, fmt.Sprintf("DELETE FROM @ WHERE id = %d", -1-k), fmt.Sprintf("UPDATE @ SET b = 1 WHERE a = %d AND b > 1000", a))
		case 9:
			to := 40 + rng.Intn(10)
			out = append(out,
				fmt.Sprintf("UPDATE @ SET a = %d WHERE a = %d AND b < %d", to, a, b),
				fmt.Sprintf("UPDATE @ SET c = 'old' WHERE a = %d", a),
				fmt.Sprintf("UPDATE @ SET c = 'new' WHERE a = %d", to),
				fmt.Sprintf("DELETE FROM @ WHERE a = %d AND b < %d", to, b/2))
		default:
			out = append(out, fmt.Sprintf("UPDATE @ SET id = id + %d WHERE id = %d", 5*dmlRows, k))
		}
	}
	return out
}

// rescan renders a table's rows in id order.
func rescan(t *testing.T, s *Session, table string) string {
	t.Helper()
	var b strings.Builder
	for _, r := range mustExec(t, s, "SELECT id, a, b, c FROM "+table+" ORDER BY id").Rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDMLAccessPathEqualsScan applies one seeded UPDATE/DELETE corpus to
// twin tables, one whose statements the optimizer answers through the
// primary B-Tree and a secondary index, one with no index, whose
// statements scan the heap. After every statement RowsAffected and a
// rescan of each table must agree — in autocommit, then inside
// Begin..Commit while another session holds a snapshot from before the
// transactions, which must still read what it read when it began.
func TestDMLAccessPathEqualsScan(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	rng := rand.New(rand.NewSource(7))
	loadTwins(t, s, rng)

	apply := func(phase string, stmts []string) {
		t.Helper()
		for _, q := range stmts {
			var affected [2]int64
			for i, table := range []string{"ix", "sc"} {
				affected[i] = mustExec(t, s, strings.ReplaceAll(q, "@", table)).RowsAffected
			}
			if affected[0] != affected[1] {
				t.Fatalf("%s: %s: %d rows through the access path, %d through the scan", phase, q, affected[0], affected[1])
			}
			if a, b := rescan(t, s, "ix"), rescan(t, s, "sc"); a != b {
				t.Fatalf("%s: %s: the tables differ afterwards", phase, q)
			}
		}
	}
	apply("autocommit", dmlCorpus(rng, 150))

	old := db.NewSession()
	defer old.Close()
	if err := old.Begin(); err != nil {
		t.Fatal(err)
	}
	before := rescan(t, old, "ix")
	if rescan(t, old, "sc") != before {
		t.Fatal("the tables differ before the transactions")
	}
	corpus := dmlCorpus(rng, 150)
	for len(corpus) > 0 {
		n := min(len(corpus), 1+rng.Intn(12))
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		apply("transaction", corpus[:n])
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		corpus = corpus[n:]
	}
	if rescan(t, old, "ix") != before || rescan(t, old, "sc") != before {
		t.Error("the older snapshot no longer reads what it read")
	}
	old.Rollback()

	// Both kinds of index path ran, and the plain table never probed.
	var primary, secondary int
	db.plans.mu.RLock()
	for _, es := range db.plans.m {
		for _, e := range es {
			if e.dml == nil {
				continue
			}
			switch table := strings.ToLower(e.scope[0]); {
			case table == "sc" && e.dml.leaf != nil:
				t.Errorf("%s probes %s", e.text, e.dml.leaf.Index)
			case table == "ix" && e.dml.leaf != nil && e.dml.leaf.Primary:
				primary++
			case table == "ix" && e.dml.leaf != nil:
				secondary++
			}
		}
	}
	db.plans.mu.RUnlock()
	if primary == 0 || secondary == 0 {
		t.Errorf("cached writes on ix: %d through the primary B-Tree, %d through a secondary index", primary, secondary)
	}

	// Matched versions come back in strictly ascending TID order, the
	// row-lock order, also from a range whose index order is not TID
	// order.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	defer s.Rollback()
	mustExec(t, s, "SELECT COUNT(*) FROM ix") // takes the transaction's snapshot
	for _, where := range []string{"a = 7 AND b > 10", "a = 11 AND b >= 0", "id >= 100 AND id < 160"} {
		parsed, err := sqlparser.ParseNormalized("DELETE FROM ix WHERE " + where)
		if err != nil {
			t.Fatal(err)
		}
		th := db.handle("ix")
		var h monitor.Handle
		c := call{p: &prepared{kind: kindOf(parsed.Stmt)}, params: parsed.Params, h: &h}
		dp, err := s.dmlPlanOf(th, parsed.Stmt.(*sqlparser.DeleteStmt).Where, nil, c)
		if err != nil {
			t.Fatal(err)
		}
		if dp.leaf == nil {
			t.Errorf("%s: planned as a heap scan", where)
			continue
		}
		ms, examined, err := s.matchRows(th, dp, parsed.Params)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) < 2 || examined < int64(len(ms)) {
			t.Errorf("%s: %d matches of %d versions examined", where, len(ms), examined)
		}
		for i := 1; i < len(ms); i++ {
			if ms[i-1].tid >= ms[i].tid {
				t.Fatalf("%s: TID %v follows %v", where, ms[i].tid, ms[i-1].tid)
			}
		}
	}
}

// TestPointDMLTouchesFewPages: a cached primary-key UPDATE on a
// 20 000-row table reaches its row through the index — a few dozen
// buffer-pool requests, where reading the table takes thousands — and
// runs no optimizer: the shape's access path is planned once per cache
// generation and reused by every execution after it.
func TestPointDMLTouchesFewPages(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	const rows = 20000
	mustExec(t, s, "CREATE TABLE big (id INTEGER PRIMARY KEY, v INTEGER)")
	for base := 0; base < rows; base += 500 {
		vals := make([]string, 0, 500)
		for i := base; i < base+500; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d)", i, i%13))
		}
		mustExec(t, s, "INSERT INTO big VALUES "+strings.Join(vals, ", "))
	}
	entry := func() *dmlPlan {
		t.Helper()
		db.plans.mu.RLock()
		defer db.plans.mu.RUnlock()
		for _, es := range db.plans.m {
			for _, e := range es {
				if e.dml != nil {
					return e.dml
				}
			}
		}
		t.Fatal("the UPDATE is not cached")
		return nil
	}
	requests := func() int64 {
		st := db.Stats()
		return st.CacheHits + st.CacheMisses
	}

	mustExec(t, s, "UPDATE big SET v = v + 1 WHERE id = 4242")
	first := entry()
	if first.leaf == nil {
		t.Fatal("the point UPDATE scans the heap")
	}
	for i := 0; i < 50; i++ {
		r0 := requests()
		res := mustExec(t, s, fmt.Sprintf("UPDATE big SET v = v + 1 WHERE id = %d", (i*397)%rows))
		if n := requests() - r0; n > 48 {
			t.Fatalf("a cached point UPDATE made %d pool requests", n)
		}
		if res.RowsAffected != 1 {
			t.Fatalf("%d rows affected", res.RowsAffected)
		}
	}
	if entry() != first {
		t.Error("a cached UPDATE was planned again")
	}
	db.InvalidatePlans()
	mustExec(t, s, "UPDATE big SET v = v + 1 WHERE id = 1")
	if entry() == first {
		t.Error("the access path survived the cache generation")
	}
	if got, want := mustExec(t, s, "SELECT SUM(v) FROM big").Rows[0][0].I, int64(rows/13*78+(rows%13)*(rows%13-1)/2+52); got != want {
		t.Errorf("SUM(v) = %d after 52 increments, want %d", got, want)
	}
}
