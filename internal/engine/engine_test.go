package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/monitor"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Config{Dir: t.TempDir(), PoolPages: 256, Monitor: monitor.New(monitor.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func mustExec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

// peopleRows is the size of the test table: large enough that index
// access paths beat sequential scans.
const peopleRows = 2000

func setupPeople(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE people (id INTEGER PRIMARY KEY, name VARCHAR(64), age INTEGER, city VARCHAR(32))`)
	cities := []string{"berlin", "ilmenau", "munich"}
	for base := 0; base < peopleRows; base += 100 {
		var vals []string
		for i := base; i < base+100 && i < peopleRows; i++ {
			vals = append(vals, fmt.Sprintf("(%d, 'person%04d', %d, '%s')",
				i, i, 20+i%50, cities[i%3]))
		}
		mustExec(t, s, "INSERT INTO people (id, name, age, city) VALUES "+strings.Join(vals, ", "))
	}
}

func TestCreateInsertSelect(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)

	res := mustExec(t, s, "SELECT id, name FROM people WHERE id = 42")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].I != 42 || res.Rows[0][1].S != "person0042" {
		t.Errorf("row = %v", res.Rows[0])
	}
	if len(res.Columns) != 2 || res.Columns[0] != "id" {
		t.Errorf("columns = %v", res.Columns)
	}

	// The primary key lookup should use the auto-created pk index.
	if res.Plan == nil || len(res.Plan.UsedIndexes) == 0 {
		t.Errorf("expected an index access path, plan:\n%v", res.Plan)
	}
}

func TestSelectFilterAndOrder(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)

	res := mustExec(t, s, "SELECT id FROM people WHERE city = 'berlin' AND age < 30 ORDER BY id DESC LIMIT 5")
	if len(res.Rows) == 0 || len(res.Rows) > 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	prev := int64(1 << 60)
	for _, r := range res.Rows {
		if r[0].I >= prev {
			t.Errorf("not descending: %v", res.Rows)
		}
		prev = r[0].I
	}
}

func TestAggregation(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)

	res := mustExec(t, s, `SELECT city, COUNT(*) cnt, AVG(age), MIN(id), MAX(id)
	                       FROM people GROUP BY city ORDER BY city`)
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d: %v", len(res.Rows), res.Rows)
	}
	var total int64
	for _, r := range res.Rows {
		total += r[1].I
	}
	if total != peopleRows {
		t.Errorf("counts sum to %d", total)
	}
	if res.Rows[0][0].S != "berlin" {
		t.Errorf("order: %v", res.Rows)
	}

	// Global aggregate without GROUP BY.
	res = mustExec(t, s, "SELECT COUNT(*), SUM(age) FROM people")
	if len(res.Rows) != 1 || res.Rows[0][0].I != peopleRows {
		t.Fatalf("global agg: %v", res.Rows)
	}

	// HAVING.
	res = mustExec(t, s, "SELECT city, COUNT(*) FROM people GROUP BY city HAVING COUNT(*) > 666")
	if len(res.Rows) != 2 { // 667/667/666 split
		t.Errorf("having rows: %v", res.Rows)
	}

	// Aggregate over an empty input still yields one row.
	res = mustExec(t, s, "SELECT COUNT(*) FROM people WHERE id = -1")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 {
		t.Errorf("empty agg: %v", res.Rows)
	}
}

func TestJoins(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)
	mustExec(t, s, "CREATE TABLE cities (name VARCHAR(32) PRIMARY KEY, country VARCHAR(32))")
	mustExec(t, s, "INSERT INTO cities VALUES ('berlin', 'de'), ('ilmenau', 'de'), ('munich', 'de'), ('paris', 'fr')")

	res := mustExec(t, s, `SELECT p.name, c.country FROM people p JOIN cities c ON p.city = c.name WHERE p.id < 10`)
	if len(res.Rows) != 10 {
		t.Fatalf("join rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].S != "de" {
			t.Errorf("row: %v", r)
		}
	}

	// Comma join with WHERE condition gives the same result.
	res2 := mustExec(t, s, `SELECT p.name, c.country FROM people p, cities c WHERE p.city = c.name AND p.id < 10`)
	if len(res2.Rows) != 10 {
		t.Fatalf("comma join rows = %d", len(res2.Rows))
	}

	// Cross join.
	res3 := mustExec(t, s, `SELECT COUNT(*) FROM people p, cities c`)
	if res3.Rows[0][0].I != int64(peopleRows)*4 {
		t.Errorf("cross join count = %v", res3.Rows[0][0])
	}

	// Three-way join.
	mustExec(t, s, "CREATE TABLE countries (code VARCHAR(8) PRIMARY KEY, continent VARCHAR(16))")
	mustExec(t, s, "INSERT INTO countries VALUES ('de', 'europe'), ('fr', 'europe')")
	res4 := mustExec(t, s, `SELECT COUNT(*) FROM people p
	    JOIN cities c ON p.city = c.name
	    JOIN countries k ON c.country = k.code
	    WHERE k.continent = 'europe'`)
	if res4.Rows[0][0].I != int64(peopleRows) {
		t.Errorf("three-way join count = %v", res4.Rows[0][0])
	}
}

func TestSecondaryIndexUsedAfterCreation(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)

	before := mustExec(t, s, "SELECT id FROM people WHERE city = 'ilmenau'")
	planBefore := before.Plan.String()
	if strings.Contains(planBefore, "IndexScan") {
		t.Fatalf("unexpected index scan before index exists:\n%s", planBefore)
	}

	mustExec(t, s, "CREATE INDEX ix_city ON people (city)")
	after := mustExec(t, s, "SELECT id FROM people WHERE city = 'ilmenau'")
	if len(after.Rows) != len(before.Rows) {
		t.Fatalf("index changed result: %d vs %d", len(after.Rows), len(before.Rows))
	}
	if !strings.Contains(after.Plan.String(), "IndexScan") {
		t.Errorf("index not used:\n%s", after.Plan.String())
	}
}

func TestVirtualIndexWhatIf(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)
	mustExec(t, s, "CREATE VIRTUAL INDEX vx_age ON people (age)")

	// Normal execution must not touch the virtual index.
	res := mustExec(t, s, "SELECT id FROM people WHERE age = 25")
	if strings.Contains(res.Plan.String(), "vx_age") {
		t.Fatalf("virtual index used in execution:\n%s", res.Plan.String())
	}

	// What-if planning may use it.
	plan, err := s.Explain("SELECT id FROM people WHERE age = 25", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "vx_age") {
		t.Errorf("what-if plan ignores virtual index:\n%s", plan.String())
	}
	// And its estimate should beat the scan.
	noIdx, _ := s.Explain("SELECT id FROM people WHERE age = 25", false)
	if plan.Est.Total() >= noIdx.Est.Total() {
		t.Errorf("virtual index estimate %v not better than scan %v", plan.Est, noIdx.Est)
	}
}

func TestUpdateDelete(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)

	res := mustExec(t, s, "UPDATE people SET age = age + 100 WHERE city = 'munich'")
	if res.RowsAffected == 0 {
		t.Fatal("no rows updated")
	}
	check := mustExec(t, s, "SELECT COUNT(*) FROM people WHERE age >= 100")
	if check.Rows[0][0].I != res.RowsAffected {
		t.Errorf("updated %d, found %v", res.RowsAffected, check.Rows[0][0])
	}

	del := mustExec(t, s, "DELETE FROM people WHERE age >= 100")
	if del.RowsAffected != res.RowsAffected {
		t.Errorf("deleted %d, want %d", del.RowsAffected, res.RowsAffected)
	}
	left := mustExec(t, s, "SELECT COUNT(*) FROM people")
	if left.Rows[0][0].I != int64(peopleRows)-del.RowsAffected {
		t.Errorf("remaining = %v", left.Rows[0][0])
	}

	// Index integrity after delete: pk lookups still work.
	one := mustExec(t, s, "SELECT name FROM people WHERE id = 0")
	if len(one.Rows) != 1 {
		t.Errorf("pk lookup after delete: %v", one.Rows)
	}
}

func TestUniqueConstraints(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE u (id INTEGER PRIMARY KEY, v VARCHAR(8))")
	mustExec(t, s, "INSERT INTO u VALUES (1, 'a')")
	if _, err := s.Exec("INSERT INTO u VALUES (1, 'b')"); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
	mustExec(t, s, "CREATE UNIQUE INDEX ux_v ON u (v)")
	if _, err := s.Exec("INSERT INTO u VALUES (2, 'a')"); err == nil {
		t.Fatal("duplicate unique key accepted")
	}
	mustExec(t, s, "INSERT INTO u VALUES (2, 'b')")
}

func TestModifyToBTree(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)

	tbl := db.Catalog().Table("people")
	h := db.handle("people")
	if h.heap.OverflowPages() == 0 {
		t.Fatal("expected overflow pages on a grown heap table")
	}
	mustExec(t, s, "MODIFY people TO BTREE")
	if tbl.Structure != "BTREE" {
		t.Errorf("structure = %s", tbl.Structure)
	}
	if h.heap.OverflowPages() != 0 {
		t.Errorf("overflow pages after MODIFY = %d", h.heap.OverflowPages())
	}
	// Data intact, primary range works.
	res := mustExec(t, s, "SELECT COUNT(*) FROM people")
	if res.Rows[0][0].I != peopleRows {
		t.Errorf("rows after MODIFY = %v", res.Rows[0][0])
	}
	res = mustExec(t, s, "SELECT name FROM people WHERE id = 7")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "person0007" {
		t.Errorf("pk lookup after MODIFY: %v", res.Rows)
	}
	// Back to heap.
	mustExec(t, s, "MODIFY people TO HEAP")
	res = mustExec(t, s, "SELECT COUNT(*) FROM people")
	if res.Rows[0][0].I != peopleRows {
		t.Errorf("rows after MODIFY TO HEAP = %v", res.Rows[0][0])
	}
}

func TestCreateStatisticsImprovesEstimates(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE skewed (id INTEGER PRIMARY KEY, v INTEGER)")
	// 90% of rows have v = 1.
	for i := 0; i < 200; i++ {
		v := 1
		if i%10 == 0 {
			v = i
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO skewed VALUES (%d, %d)", i, v))
	}
	p1, _ := s.Explain("SELECT id FROM skewed WHERE v = 1", false)
	mustExec(t, s, "CREATE STATISTICS FOR skewed (v)")
	p2, _ := s.Explain("SELECT id FROM skewed WHERE v = 1", false)
	if p2.Est.Rows <= p1.Est.Rows {
		t.Errorf("statistics did not improve skew estimate: before %v after %v", p1.Est.Rows, p2.Est.Rows)
	}
	if p2.Est.Rows < 60 || p2.Est.Rows > 220 {
		t.Errorf("estimate with stats = %v, want the heavy hitter share (≈90-180)", p2.Est.Rows)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(16))")
	for i := 0; i < 50; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, 'val%d')", i, i))
	}
	mustExec(t, s, "CREATE INDEX ix_v ON t (v)")
	mustExec(t, s, "MODIFY t TO BTREE")
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Config{Dir: dir, PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2 := db2.NewSession()
	defer s2.Close()
	res := mustExec(t, s2, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].I != 50 {
		t.Fatalf("rows after reopen = %v", res.Rows[0][0])
	}
	res = mustExec(t, s2, "SELECT id FROM t WHERE v = 'val33'")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 33 {
		t.Errorf("index lookup after reopen: %v", res.Rows)
	}
	if db2.Catalog().Table("t").Structure != "BTREE" {
		t.Error("structure lost on reopen")
	}
}

func TestVirtualTables(t *testing.T) {
	db := testDB(t)
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "k", Type: sqltypes.Text},
		sqltypes.Column{Name: "v", Type: sqltypes.Int},
	)
	calls := 0
	err := db.RegisterVirtual("vt", schema, func() []sqltypes.Row {
		calls++
		return []sqltypes.Row{
			{sqltypes.NewText("a"), sqltypes.NewInt(1)},
			{sqltypes.NewText("b"), sqltypes.NewInt(2)},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterVirtual("vt", schema, nil); err == nil {
		t.Error("duplicate virtual registration accepted")
	}
	s := db.NewSession()
	defer s.Close()
	res := mustExec(t, s, "SELECT k FROM vt WHERE v = 2")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "b" {
		t.Fatalf("virtual query: %v", res.Rows)
	}
	if calls == 0 {
		t.Error("provider never called")
	}
	// Joining a virtual table with a base table works.
	mustExec(t, s, "CREATE TABLE base (k VARCHAR(8) PRIMARY KEY, n INTEGER)")
	mustExec(t, s, "INSERT INTO base VALUES ('a', 10), ('b', 20)")
	res = mustExec(t, s, "SELECT base.n FROM vt JOIN base ON vt.k = base.k WHERE vt.v = 1")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 10 {
		t.Errorf("virtual join: %v", res.Rows)
	}
}

func TestMonitorRecordsStatementPath(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)

	mon := db.Monitor()
	base := mon.TotalStatements()
	mustExec(t, s, "SELECT id FROM people WHERE id = 5")
	mustExec(t, s, "SELECT id FROM people WHERE id = 6")
	if mon.TotalStatements() != base+2 {
		t.Fatalf("monitored statements: %d", mon.TotalStatements()-base)
	}
	snap := mon.Snapshot()
	var found *monitor.WorkloadEntry
	for i := range snap.Workload {
		if snap.Workload[i].Hash == sqlparser.DigestOf("SELECT id FROM people WHERE id = 5") {
			found = &snap.Workload[i]
		}
	}
	if found == nil {
		t.Fatal("workload entry missing")
	}
	if found.EstCPU <= 0 && found.EstIO <= 0 {
		t.Errorf("no cost estimates recorded: %+v", found)
	}
	if found.ExecCPU <= 0 {
		t.Errorf("no actual CPU recorded: %+v", found)
	}
	if found.Wall <= 0 || found.MonNanos <= 0 {
		t.Errorf("no timings recorded: %+v", found)
	}
	if snap.TableFreq["people"] == 0 {
		t.Errorf("table frequency missing: %v", snap.TableFreq)
	}
	foundAttr := false
	for a := range snap.AttrFreq {
		if a == "people.id" {
			foundAttr = true
		}
	}
	if !foundAttr {
		t.Errorf("attribute frequency missing: %v", snap.AttrFreq)
	}
}

func TestPlanCacheHitSkipsOptimizer(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)

	// A shape's executions add up in its sums, one row per read until
	// the rows land.
	mon := db.Monitor()
	digest := sqlparser.DigestOf("SELECT name FROM people WHERE id = 1")
	drain := func() []monitor.WorkloadEntry {
		w := mon.SnapshotWorkload()
		mon.Landed(w)
		return w
	}
	drain()
	mustExec(t, s, "SELECT name FROM people WHERE id = 1")
	first := drain()
	mustExec(t, s, "SELECT name FROM people WHERE id = 2")
	mustExec(t, s, "SELECT name FROM people WHERE id = 4")
	second := drain()
	if len(first) != 1 || len(second) != 1 || first[0].Hash != digest || second[0].Hash != digest {
		t.Fatalf("workload entries %+v then %+v, want one each under digest %x", first, second, digest)
	}
	if first[0].Executions != 1 || first[0].OptTime == 0 {
		t.Errorf("first execution should include optimizer time: %+v", first[0])
	}
	if second[0].Executions != 2 || second[0].OptTime != 0 {
		t.Errorf("later executions should hit the plan cache (OptTime 0): %+v", second[0])
	}
	// Both return correct, different results.
	r1 := mustExec(t, s, "SELECT name FROM people WHERE id = 3")
	if r1.Rows[0][0].S != "person0003" {
		t.Errorf("cached plan returned wrong row: %v", r1.Rows)
	}
}

func TestDisabledMonitorPathWorks(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir(), PoolPages: 128}) // no monitor
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE t (a INTEGER PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO t VALUES (1), (2)")
	res := mustExec(t, s, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].I != 2 {
		t.Errorf("result with nil monitor: %v", res.Rows)
	}
	if db.Monitor() != nil {
		t.Error("monitor should be nil")
	}
}

func TestErrorCases(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)
	for _, sql := range []string{
		"SELECT * FROM missing",
		"SELECT bogus FROM people",
		"INSERT INTO people (id) VALUES ('text')", // type mismatch
		"INSERT INTO missing VALUES (1)",
		"CREATE TABLE people (x INTEGER)", // duplicate
		"CREATE INDEX ix ON missing (x)",
		"CREATE INDEX ix ON people (bogus)",
		"DROP TABLE missing",
		"DROP INDEX missing",
		"MODIFY missing TO BTREE",
		"CREATE STATISTICS FOR missing",
		"SELECT COUNT(*) FROM people GROUP BY city HAVING bogus > 1",
		"SELECT name, COUNT(*) FROM people", // non-grouped column
		"not sql at all",
	} {
		if _, err := s.Exec(sql); err == nil {
			t.Errorf("Exec(%q) unexpectedly succeeded", sql)
		}
	}
	// After all those failures the engine still works.
	res := mustExec(t, s, "SELECT COUNT(*) FROM people")
	if res.Rows[0][0].I != peopleRows {
		t.Errorf("engine wedged after errors: %v", res.Rows)
	}
	if st := db.LockStats(); st.Held != 0 {
		t.Errorf("locks leaked: %+v", st)
	}
}

func TestStatsSnapshot(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)
	st := db.Stats()
	if st.Statements == 0 || st.DBBytes == 0 {
		t.Errorf("stats: %+v", st)
	}
	if st.CurrentSessions != 1 {
		t.Errorf("sessions: %+v", st)
	}
	if st.PeakSessions < 1 {
		t.Errorf("peak: %+v", st)
	}
}

func TestExplainFormatting(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)
	plan, err := s.Explain("SELECT city, COUNT(*) FROM people WHERE id > 10 GROUP BY city ORDER BY city LIMIT 2", false)
	if err != nil {
		t.Fatal(err)
	}
	str := plan.String()
	for _, want := range []string{"Limit", "Sort", "Project", "Agg"} {
		if !strings.Contains(str, want) {
			t.Errorf("plan missing %s:\n%s", want, str)
		}
	}
	if _, err := s.Explain("INSERT INTO people (id) VALUES (1)", false); err == nil {
		t.Error("Explain accepted a non-SELECT")
	}
}
