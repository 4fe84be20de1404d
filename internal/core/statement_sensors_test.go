package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/workloaddb"
)

func mustExec(t *testing.T, s *engine.Session, sql string) *engine.Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// loadItems creates item(id PRIMARY KEY, grp, name) with n rows.
func loadItems(t *testing.T, s *engine.Session, n int) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE item (id INTEGER PRIMARY KEY, grp INTEGER, name VARCHAR(32))")
	for base := 0; base < n; base += 200 {
		var vals []string
		for i := base; i < base+200 && i < n; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, 'item%05d')", i, i%17, i))
		}
		mustExec(t, s, "INSERT INTO item VALUES "+strings.Join(vals, ", "))
	}
}

// hashes reads one integer column of a workload-DB table as a set.
func hashes(t *testing.T, sys *System, query string) map[int64]int {
	t.Helper()
	ws := sys.WorkloadDB.NewSession()
	defer ws.Close()
	out := map[int64]int{}
	for _, row := range mustExec(t, ws, query).Rows {
		out[row[0].I]++
	}
	return out
}

// Join completeness: after one poll over a Zipf-like stream of point
// selects — 20 000 statements over more than 2 000 distinct keys, twenty
// times the statement table — every persisted ws_workload row and every
// ws_references row joins a ws_statements row. (Keyed by text, the
// 1 000-entry table had turned over long before the poll and most
// workload hashes joined nothing.)
func TestEveryPersistedHashJoinsAStatement(t *testing.T) {
	sys, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	s := sys.Session()
	defer s.Close()
	loadItems(t, s, 4000)

	zipf := rand.NewZipf(rand.New(rand.NewSource(3)), 1.01, 1, 3999)
	keys := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		k := zipf.Uint64()
		keys[k] = true
		if res := mustExec(t, s, fmt.Sprintf("SELECT name FROM item WHERE id = %d", k)); len(res.Rows) != 1 {
			t.Fatalf("key %d: %d rows", k, len(res.Rows))
		}
	}
	if len(keys) < 2000 {
		t.Fatalf("the stream has %d distinct keys, want >= 2000", len(keys))
	}
	if err := sys.Poll(); err != nil {
		t.Fatal(err)
	}

	stmts := hashes(t, sys, "SELECT hash FROM "+workloaddb.Statements)
	for name, table := range map[string]string{"ws_workload": workloaddb.Workload, "ws_references": workloaddb.References} {
		rows, orphans := 0, 0
		for h, n := range hashes(t, sys, "SELECT hash FROM "+table) {
			rows += n
			if stmts[h] == 0 {
				orphans += n
			}
		}
		if rows == 0 || orphans > 0 {
			t.Errorf("%s: %d of %d rows have no ws_statements row", name, orphans, rows)
		}
	}
	if n := stmts[int64(sqlparser.DigestOf("SELECT name FROM item WHERE id = 1"))]; n != 1 {
		t.Errorf("the point-select shape has %d ws_statements rows after one poll", n)
	}
}

// A flood of distinct texts the lexer rejects is a handful of statements
// — one per lexer error kind, under the first text seen — and evicts no
// real shape from a statement table a tenth its size.
func TestLexErrorFloodKeepsShapes(t *testing.T) {
	sys, err := Open(Options{Dir: t.TempDir()}) // the default table: 1000 statements
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	s := sys.Session()
	defer s.Close()
	loadItems(t, s, 200)
	const shapes = 20
	for i := 0; i < shapes; i++ {
		mustExec(t, s, fmt.Sprintf("SELECT id FROM item WHERE grp = %d ORDER BY id LIMIT %d", i%17, i+1))
	}
	before := sys.Monitor.StatementCount()

	garbage := []string{"SELECT 'never closed %d", "SELECT %d FROM item WHERE id = 1e+", "SELECT id FROM item WHERE id # %d"}
	const flood = 10000
	for i := 0; i < flood; i++ {
		if _, err := s.Exec(fmt.Sprintf(garbage[i%len(garbage)], i)); err == nil {
			t.Fatalf("garbage %d executed", i)
		}
	}
	if _, _, evictions := sys.Monitor.TableOps(); evictions != 0 || sys.Monitor.StatementCount() != before+len(garbage) {
		t.Errorf("%d evictions, %d statements after the flood, want 0 and %d", evictions, sys.Monitor.StatementCount(), before+len(garbage))
	}
	for i := 0; i < shapes; i++ {
		q := fmt.Sprintf("SELECT frequency FROM ima_statements WHERE hash = %d",
			int64(sqlparser.DigestOf(fmt.Sprintf("SELECT id FROM item WHERE grp = 0 ORDER BY id LIMIT %d", i+1))))
		if res := mustExec(t, s, q); len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
			t.Errorf("shape %d after the flood: %v", i, res.Rows)
		}
	}
	for i, text := range garbage {
		q := fmt.Sprintf("SELECT query_text, frequency FROM ima_statements WHERE hash = %d", int64(sqlparser.DigestOf(fmt.Sprintf(text, i+3000))))
		res := mustExec(t, s, q)
		if len(res.Rows) != 1 || res.Rows[0][0].S != fmt.Sprintf(text, i) || res.Rows[0][1].I != int64((flood+len(garbage)-1-i)/len(garbage)) {
			t.Errorf("lexer error kind %d: %v, want one statement under its first text", i, res.Rows)
		}
	}
}

// One key runs through every relation: whatever literals a statement of
// a shape carries, its hash in ima_statements, ima_workload,
// ima_references, ima_latency, ima_stages, ima_spans and their ws_
// copies is the shape's digest, the shape has one statements row, and
// the stage samples of all its texts land in one ima_stages row, which
// joins the shape's ws_statements row once persisted.
func TestOneDigestAcrossRelations(t *testing.T) {
	sys, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	s := sys.Session()
	defer s.Close()
	loadItems(t, s, 400)

	const n = 40
	text := func(i int) string {
		return fmt.Sprintf("SELECT name FROM item WHERE grp = %d AND id < %d ORDER BY id LIMIT 3", i%17, 100+i)
	}
	want := int64(sqlparser.DigestOf(text(0)))
	for i := 0; i < n; i++ {
		// A session samples its first statement: every text is sampled.
		fresh := sys.Session()
		mustExec(t, fresh, text(i))
		fresh.Close()
	}
	explain := "EXPLAIN ANALYZE " + text(0)
	mustExec(t, s, explain)

	count := func(sess *engine.Session, q string) int64 {
		t.Helper()
		return mustExec(t, sess, q).Rows[0][0].I
	}
	ws := sys.WorkloadDB.NewSession()
	defer ws.Close()
	polled := false
	for _, c := range []struct {
		sess  *engine.Session
		query string
		want  int64
	}{
		{s, "SELECT frequency FROM ima_statements WHERE hash = %d", n},
		{s, "SELECT COUNT(*) FROM ima_statements WHERE hash = %d", 1},
		{s, "SELECT SUM(executions) FROM ima_workload WHERE hash = %d", n},
		{s, "SELECT COUNT(*) FROM ima_references WHERE hash = %d AND obj_type = 'table'", 1},
		{s, "SELECT SUM(bucket_count) FROM ima_latency WHERE scope = 'stmt' AND hash = %d", n},
		{s, "SELECT samples FROM ima_stages WHERE hash = %d", n},
		{s, "SELECT COUNT(*) FROM ima_stages WHERE hash = %d", 1},
		{ws, "SELECT frequency FROM ws_statements WHERE hash = %d", n},
		{ws, "SELECT SUM(executions) FROM ws_workload WHERE hash = %d", n},
		{ws, "SELECT COUNT(*) FROM ws_references WHERE hash = %d AND obj_type = 'table'", 1},
		{ws, "SELECT samples FROM ws_stages WHERE hash = %d", n},
		{ws, "SELECT COUNT(*) FROM ws_stages, ws_statements WHERE ws_stages.hash = ws_statements.hash AND ws_stages.hash = %d", 1},
	} {
		if c.sess == ws && !polled { // the live relations are read; now the persisted ones
			polled = true
			if err := sys.Poll(); err != nil {
				t.Fatal(err)
			}
		}
		q := c.query
		if strings.Contains(q, "%d") {
			q = fmt.Sprintf(q, want)
		}
		if got := count(c.sess, q); got != c.want {
			t.Errorf("%s = %d, want %d", q, got, c.want)
		}
	}
	// The traced EXPLAIN ANALYZE is a statement of its own; its spans
	// carry the digest its statements row has.
	if got := count(s, fmt.Sprintf("SELECT COUNT(*) FROM ima_statements WHERE hash = %d", int64(sqlparser.DigestOf(explain)))); got != 1 {
		t.Errorf("EXPLAIN ANALYZE has %d ima_statements rows under its digest", got)
	}
	if got := count(s, fmt.Sprintf("SELECT COUNT(*) FROM ima_spans WHERE hash <> %d", int64(sqlparser.DigestOf(explain)))); got != 0 {
		t.Errorf("%d ima_spans rows carry another hash than their statement's digest", got)
	}
}

// Conservation under churn (run with -race): eight sessions execute
// 3 000 shapes — three times the statement table, six times the
// prepared cache — and one hot shape, while DDL keeps invalidating the
// cache and changing plans and the daemon polls. Afterwards every
// execution is in exactly one place and counted against the objects of
// the plan that ran it:
//
//	Σ ima_statements.frequency + evicted = TotalStatements
//	per-entry histogram total = frequency
//	ima_tables / ima_attributes / ima_indexes = the test's own count
func TestSensorConservationUnderChurn(t *testing.T) {
	sys, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	setup := sys.Session()
	loadItems(t, setup, 600)
	setup.Close()

	const sessions, shapes = 8, 3000
	perSession := 1000
	if testing.Short() {
		perSession = 500
	}
	type counts struct{ tables, attrs, indexes map[string]int64 }
	tally := make([]counts, sessions+1)
	for i := range tally {
		tally[i] = counts{map[string]int64{}, map[string]int64{}, map[string]int64{}}
	}
	// ran notes one successful execution: the tables as the parser lists
	// them, attributes and indexes as the plan that ran lists them.
	ran := func(c *counts, sql string, res *engine.Result) {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Errorf("%s: %v", sql, err)
			return
		}
		for _, x := range sqlparser.ReferencedTables(stmt) {
			c.tables[x]++
		}
		if res.Plan != nil {
			for _, x := range res.Plan.Attributes {
				c.attrs[x]++
			}
			for _, x := range res.Plan.UsedIndexes {
				c.indexes[x]++
			}
		}
	}

	var executed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := sys.Session()
			defer s.Close()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perSession; i++ {
				var sql string
				if i%4 == 0 { // the hot shape, another key each time
					sql = fmt.Sprintf("SELECT name FROM item WHERE id = %d", r.Intn(600))
				} else { // LIMIT stays in the statement: 3 000 shapes
					sql = fmt.Sprintf("SELECT id FROM item WHERE grp = %d ORDER BY id LIMIT %d", r.Intn(17), 1+r.Intn(shapes))
				}
				res, err := s.Exec(sql)
				if err != nil {
					t.Errorf("%s: %v", sql, err)
					return
				}
				ran(&tally[g], sql, res)
				executed.Add(1)
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
	// DDL: each statement drops the prepared cache; the index changes
	// the plans of the LIMIT shapes, MODIFY those of every shape.
	go func() {
		defer bg.Done()
		s := sys.Session()
		defer s.Close()
		for i := 0; ; i++ {
			// One DDL statement per 1 200 executions, so that the prepared
			// cache (512 entries) fills and evicts between two of them.
			if !after(1200) {
				return
			}
			sql := []string{"CREATE INDEX item_grp ON item (grp)", "CREATE STATISTICS FOR item", "MODIFY item TO BTREE ON id", "DROP INDEX item_grp", "MODIFY item TO HEAP"}[i%5]
			res, err := s.Exec(sql)
			if err != nil {
				t.Errorf("%s: %v", sql, err)
				return
			}
			ran(&tally[sessions], sql, res)
			executed.Add(1)
		}
	}()
	go func() {
		defer bg.Done()
		for after(800) {
			if err := sys.Poll(); err != nil {
				t.Errorf("poll: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()
	if t.Failed() {
		return
	}

	mon := sys.Monitor
	var live int64
	for _, si := range mon.SnapshotStatements() {
		live += si.Frequency
		if si.Lat.Total() != si.Frequency {
			t.Errorf("statement %d: histogram total %d, frequency %d", si.Hash, si.Lat.Total(), si.Frequency)
		}
	}
	total := mon.TotalStatements()
	setupStmts := int64(1 + 600/200)
	if total != executed.Load()+setupStmts || live+mon.EvictedStatements() != total {
		t.Errorf("TotalStatements %d (executed %d + %d set-up): live %d + evicted %d = %d",
			total, executed.Load(), setupStmts, live, mon.EvictedStatements(), live+mon.EvictedStatements())
	}
	if _, _, evictions := mon.TableOps(); evictions == 0 || sys.DB.Stats().StmtCacheEvictions == 0 || sys.DB.Stats().StmtCacheInvalidations == 0 {
		t.Errorf("the churn did not happen: %d table evictions, cache stats %+v", evictions, sys.DB.Stats())
	}

	want := counts{map[string]int64{"item": setupStmts}, map[string]int64{}, map[string]int64{}}
	for _, c := range tally {
		for k, v := range c.tables {
			want.tables[k] += v
		}
		for k, v := range c.attrs {
			want.attrs[k] += v
		}
		for k, v := range c.indexes {
			want.indexes[k] += v
		}
	}
	tf, af, xf := mon.SnapshotFrequencies()
	if len(xf) < 2 {
		t.Errorf("the DDL never changed a plan: index frequencies %v", xf)
	}
	for name, pair := range map[string][2]map[string]int64{"tables": {tf, want.tables}, "attributes": {af, want.attrs}, "indexes": {xf, want.indexes}} {
		if fmt.Sprint(pair[0]) != fmt.Sprint(pair[1]) {
			t.Errorf("%s: monitor %v, executed %v", name, pair[0], pair[1])
		}
	}
}

// sensorStream is a fixed single-session stream over every kind of
// statement the sensors tell apart: cached selects with changing
// literals, LIMIT variants, a join, writes, DDL that changes a cached
// shape's plan, EXPLAIN, SET, and statements that fail in the lexer,
// the parser, the optimizer and the executor.
func sensorStream(t *testing.T, s *engine.Session) {
	t.Helper()
	loadItems(t, s, 400)
	mustExec(t, s, "CREATE TABLE tag (item_id INTEGER, label VARCHAR(16))")
	for i := 0; i < 60; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO tag VALUES (%d, 'l%d')", i*5, i%4))
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 25; i++ {
			mustExec(t, s, fmt.Sprintf("SELECT name FROM item WHERE id = %d", (i*37+round)%400))
			mustExec(t, s, fmt.Sprintf("SELECT id FROM item WHERE grp = %d ORDER BY id LIMIT %d", i%17, 1+i%3))
		}
		for i := 0; i < 5; i++ {
			mustExec(t, s, fmt.Sprintf("SELECT i.name, t.label FROM item i JOIN tag t ON i.id = t.item_id WHERE t.label = 'l%d'", i%4))
			mustExec(t, s, fmt.Sprintf("UPDATE item SET grp = grp + 1 WHERE id = %d", i))
			mustExec(t, s, fmt.Sprintf("DELETE FROM tag WHERE item_id = %d", i*5+round*100))
		}
		for _, bad := range []string{"SELECT 'open", "SELEC name FROM item", "SELECT name FROM nowhere WHERE id = 1", fmt.Sprintf("INSERT INTO item VALUES (%d, 0, 'dup')", round)} {
			if _, err := s.Exec(bad); err == nil {
				t.Fatalf("%s succeeded", bad)
			}
		}
		mustExec(t, s, "EXPLAIN SELECT name FROM item WHERE grp = 3")
		mustExec(t, s, "SET parallel 2")
		switch round {
		case 0:
			mustExec(t, s, "CREATE INDEX item_grp ON item (grp)")
		case 1:
			mustExec(t, s, "CREATE STATISTICS FOR item")
		}
	}
}

// Keying statements by shape changes which statement an execution is
// counted under and nothing else: for a fixed stream, ima_tables,
// ima_attributes, ima_indexes, the deterministic columns of
// ima_statistics and the totals of ima_latency's global scopes are what
// the text-keyed monitor produced, and ima_workload's per-statement sums
// (minus hash and clock columns) are what one row per execution summed
// to. The fingerprint was taken by running this test — with COUNT(*) for
// SUM(executions), and with db_bytes counting a heap's last page as far
// as it is filled — at the last commit that wrote a row per execution
// (be2cdcf); its other relations read what they read at the last
// text-keyed commit (9e0009d). It was taken again when UPDATE and DELETE
// began to find their rows through the optimizer's access path: their
// ima_workload rows now carry the plan's estimates, the versions
// examined as exec_cpu and the rows changed as rows (an INSERT's rows
// too), and their WHERE columns and probed indexes count in
// ima_attributes and ima_indexes; nothing else moved.
func TestObjectAndWorkloadRelationsUnchangedByKeying(t *testing.T) {
	sys, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	s := sys.Session()
	defer s.Close()
	sensorStream(t, s)

	var dump strings.Builder
	for _, q := range []string{
		"SELECT SUM(executions), SUM(exec_cpu), SUM(exec_io), SUM(est_cpu), SUM(est_io), SUM(est_rows), SUM(rows), SUM(error) FROM ima_workload GROUP BY hash",
		"SELECT table_name, frequency, structure, row_count FROM ima_tables",
		"SELECT attr_name, frequency, has_histogram FROM ima_attributes",
		"SELECT index_name, table_name, frequency FROM ima_indexes",
		"SELECT statements, peak_sessions, lock_waits, deadlocks, cache_misses, db_bytes FROM ima_statistics",
		"SELECT scope, SUM(bucket_count) FROM ima_latency WHERE hash = 0 GROUP BY scope ORDER BY scope",
	} {
		fmt.Fprintln(&dump, strings.Replace(q, "COUNT(*)", "SUM(executions)", 1))
		var lines []string
		for _, row := range mustExec(t, s, q).Rows {
			var line strings.Builder
			for _, v := range row {
				if v.T == sqltypes.Float { // a sum's last bits depend on the order of addition
					v = sqltypes.NewText(fmt.Sprintf("%.9g", v.F))
				}
				fmt.Fprint(&line, v.String(), "|")
			}
			lines = append(lines, line.String())
		}
		if strings.Contains(q, "GROUP BY hash") { // the hash itself is left out: group order is no part of the contract
			sort.Strings(lines)
		}
		for _, line := range lines {
			fmt.Fprintln(&dump, line)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(dump.String()))
	const want = uint64(0xadcc26d3605aff1c)
	if got := h.Sum64(); got != want {
		t.Errorf("fingerprint %#x, want %#x; the relations read:\n%s", got, want, dump.String())
	}
}
