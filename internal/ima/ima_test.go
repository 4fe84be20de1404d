package ima

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/monitor"
)

func newMonitoredDB(t *testing.T) (*engine.DB, *monitor.Monitor, *engine.Session) {
	t.Helper()
	mon := monitor.New(monitor.Config{})
	db, err := engine.Open(engine.Config{Dir: t.TempDir(), PoolPages: 256, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if err := Register(Sources{DB: db, Mon: mon}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := db.NewSession()
	t.Cleanup(s.Close)
	return db, mon, s
}

func exec(t *testing.T, s *engine.Session, sql string) *engine.Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

// seedRows is large enough that primary-key lookups use the pk index.
const seedRows = 2000

func seed(t *testing.T, s *engine.Session) {
	exec(t, s, "CREATE TABLE items (id INTEGER PRIMARY KEY, v VARCHAR(16))")
	for base := 0; base < seedRows; base += 200 {
		stmt := "INSERT INTO items VALUES "
		for i := base; i < base+200; i++ {
			if i > base {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, 'v%d')", i, i)
		}
		exec(t, s, stmt)
	}
	exec(t, s, "SELECT v FROM items WHERE id = 3")
	exec(t, s, "SELECT v FROM items WHERE id = 3")
	exec(t, s, "SELECT COUNT(*) FROM items")
}

func TestRegisterRequiresMonitor(t *testing.T) {
	db, err := engine.Open(engine.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := Register(Sources{DB: db}); err == nil {
		t.Fatal("Register accepted a nil monitor")
	}
}

func TestStatementsTableOverSQL(t *testing.T) {
	_, _, s := newMonitoredDB(t)
	seed(t, s)
	res := exec(t, s, "SELECT query_text, frequency FROM ima_statements WHERE frequency >= 2")
	found := false
	for _, r := range res.Rows {
		if r[0].S == "SELECT v FROM items WHERE id = 3" && r[1].I == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("repeated statement not visible over SQL: %v", res.Rows)
	}
}

func TestWorkloadTableCostColumns(t *testing.T) {
	_, _, s := newMonitoredDB(t)
	seed(t, s)
	res := exec(t, s, "SELECT wall_us, exec_cpu, est_cpu FROM ima_workload WHERE rows > 0")
	if len(res.Rows) == 0 {
		t.Fatal("no workload rows")
	}
	for _, r := range res.Rows {
		if r[0].I < 0 || r[1].I <= 0 {
			t.Errorf("suspicious workload row: %v", r)
		}
	}
}

func TestReferencesJoinStatements(t *testing.T) {
	_, _, s := newMonitoredDB(t)
	seed(t, s)
	// The IMA tables are plain relations: join them with SQL, exactly
	// as the paper's schema (Figure 3) intends.
	res := exec(t, s, `SELECT r.obj_name FROM ima_references r
		JOIN ima_statements st ON r.hash = st.hash
		WHERE r.obj_type = 'table' AND st.frequency >= 2`)
	found := false
	for _, r := range res.Rows {
		if r[0].S == "items" {
			found = true
		}
	}
	if !found {
		t.Errorf("reference join failed: %v", res.Rows)
	}
}

func TestTablesAndAttributesTables(t *testing.T) {
	_, _, s := newMonitoredDB(t)
	seed(t, s)
	res := exec(t, s, "SELECT table_name, frequency, structure, row_count FROM ima_tables WHERE table_name = 'items'")
	if len(res.Rows) != 1 {
		t.Fatalf("ima_tables: %v", res.Rows)
	}
	if res.Rows[0][1].I == 0 || res.Rows[0][2].S != "HEAP" || res.Rows[0][3].I != seedRows {
		t.Errorf("ima_tables row: %v", res.Rows[0])
	}

	res = exec(t, s, "SELECT attr_name, frequency FROM ima_attributes WHERE attr_name = 'items.id'")
	if len(res.Rows) != 1 || res.Rows[0][1].I == 0 {
		t.Errorf("ima_attributes: %v", res.Rows)
	}
}

func TestIndexesTableShowsPKUse(t *testing.T) {
	_, _, s := newMonitoredDB(t)
	seed(t, s)
	res := exec(t, s, "SELECT index_name, frequency FROM ima_indexes WHERE frequency > 0")
	if len(res.Rows) == 0 {
		t.Fatalf("no used indexes visible: %v", res.Rows)
	}
	found := false
	for _, r := range res.Rows {
		if r[0].S == "pk_items" {
			found = true
		}
	}
	if !found {
		t.Errorf("pk index usage missing: %v", res.Rows)
	}
}

func TestStatisticsTable(t *testing.T) {
	_, _, s := newMonitoredDB(t)
	seed(t, s)
	res := exec(t, s, "SELECT current_sessions, statements, db_bytes FROM ima_statistics")
	if len(res.Rows) != 1 {
		t.Fatalf("ima_statistics rows: %d", len(res.Rows))
	}
	r := res.Rows[0]
	if r[0].I < 1 || r[1].I == 0 || r[2].I == 0 {
		t.Errorf("statistics row: %v", r)
	}
}

func TestDoubleRegisterFails(t *testing.T) {
	db, mon, _ := newMonitoredDB(t)
	if err := Register(Sources{DB: db, Mon: mon}); err == nil {
		t.Fatal("double Register succeeded")
	}
}

func TestReferenceDedupBoundedEviction(t *testing.T) {
	// The dedup set evicts oldest-first at the cap instead of resetting
	// wholesale, so recently persisted references stay deduplicated.
	r := newFifoSet(4)
	has := func(k string) bool { _, ok := r.seen[k]; return ok }
	for _, k := range []string{"a", "b", "c", "d"} {
		r.add(k)
	}
	if len(r.seen) != 4 {
		t.Fatalf("len = %d", len(r.seen))
	}
	r.add("e") // evicts "a", the oldest
	if len(r.seen) != 4 {
		t.Errorf("len after eviction = %d, want 4", len(r.seen))
	}
	for _, k := range []string{"b", "c", "d", "e"} {
		if !has(k) {
			t.Errorf("recent key %q evicted", k)
		}
	}
	if has("a") {
		t.Error("oldest key survived past the cap")
	}
	r.add("e") // re-adding a live key must not grow or evict
	if len(r.seen) != 4 || !has("b") {
		t.Errorf("re-add disturbed the set: len=%d has(b)=%v", len(r.seen), has("b"))
	}
}

// TestIndexesDeterministicOrder: ima_indexes is name-sorted, so two
// reads agree row for row (the primary-structure rows used to come out
// in map-iteration order).
func TestIndexesDeterministicOrder(t *testing.T) {
	_, mon, s := newMonitoredDB(t)
	seed(t, s) // pk_items, a catalog index
	// Uses of primary structures, as the optimizer reports them.
	var used []string
	for i := 0; i < 6; i++ {
		used = append(used, fmt.Sprintf("o%d.primary", i))
	}
	h := mon.StartStatement("SELECT 1")
	h.Parsed("SELECT", nil)
	h.Optimized(1, 1, 1, nil, used, 0)
	h.Finish(1, 0, 1, nil)
	read := func() []string {
		var names []string
		for _, r := range exec(t, s, "SELECT index_name FROM ima_indexes").Rows {
			names = append(names, r[0].S)
		}
		return names
	}
	first, second := read(), read()
	if strings.Join(first, ",") != strings.Join(second, ",") {
		t.Errorf("two reads disagree:\n%v\n%v", first, second)
	}
	if !sort.StringsAreSorted(first) {
		t.Errorf("ima_indexes not name-sorted: %v", first)
	}
	primaries := 0
	for _, n := range first {
		if strings.HasSuffix(n, ".primary") {
			primaries++
		}
	}
	if primaries != 6 {
		t.Errorf("want several <table>.primary rows to order, got %v", first)
	}
}

// TestRowsReadFromCut: a reader that took a cut (the storage daemon,
// once per poll) gets statements, workload, references and the
// frequency-carrying relations from it — one pass over the monitor's
// locks, one consistent state — while a reader without one sees the
// monitor as it is now.
func TestRowsReadFromCut(t *testing.T) {
	db, mon, s := newMonitoredDB(t)
	seed(t, s)
	cut := mon.Snapshot()
	src := Sources{DB: db, Mon: mon, Cut: &cut}
	read := func(src Sources) map[string]string {
		out := map[string]string{}
		for i := range Relations {
			switch rel := &Relations[i]; rel.Name {
			case "statements", "workload", "references", "tables", "attributes", "indexes":
				out[rel.Name] = fmt.Sprint(rel.Rows(&src))
			}
		}
		return out
	}
	atCut := read(src)
	exec(t, s, "SELECT id, v FROM items WHERE id = 9") // a new statement, through the pk index
	if now := read(src); fmt.Sprint(now) != fmt.Sprint(atCut) {
		t.Errorf("rows moved under a cut:\n at cut %v\n now    %v", atCut, now)
	}
	live := read(Sources{DB: db, Mon: mon})
	for name, rows := range atCut {
		if live[name] == rows {
			t.Errorf("%s: a reader without a cut did not see the new statement", name)
		}
	}
}
