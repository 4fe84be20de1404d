package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/stage"
)

// TestScanAllocsPerRow pins the row-path allocation fix: projection
// rows are carved from a RowArena (one allocation per chunk), heap
// row decoding reuses a scratch slice, and DISTINCT key probes reuse
// an encode buffer. End to end, a 2000-row projection scan over an
// integer-only table must stay well under one allocation per row — a
// regression to per-row make() anywhere on the path trips the bound
// immediately. (VARCHAR columns are excluded deliberately: decoding a
// string value must copy it out of the pinned page, so each string
// column adds an unavoidable allocation per row.)
func TestScanAllocsPerRow(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()

	const rows = 2000
	mustExec(t, s, "CREATE TABLE nums (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
	for base := 0; base < rows; base += 200 {
		var vals []string
		for i := base; i < base+200; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d)", i, i%50, i%7))
		}
		mustExec(t, s, "INSERT INTO nums (id, a, b) VALUES "+strings.Join(vals, ", "))
	}

	queries := []string{
		"SELECT id, a + 1 FROM nums WHERE a >= 0",
		"SELECT DISTINCT a FROM nums",
	}
	for _, q := range queries {
		mustExec(t, s, q) // warm plan cache and buffer pool
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := s.Exec(q); err != nil {
				t.Fatal(err)
			}
		})
		perRow := allocs / rows
		t.Logf("%s: %.0f allocs (%.3f/row)", q, allocs, perRow)
		if perRow > 0.5 {
			t.Errorf("%s: %.0f allocs for %d rows (%.2f/row), want < 0.5/row", q, allocs, rows, perRow)
		}
	}
}

// TestHashJoinBuildAllocs: a hash join builds on its smaller input, so
// joining a 16-row table to a 20,000-row one hashes 16 rows. Building
// on the large side instead copies all of it into arena chunks and
// sizes a key table for 16k entries — megabytes per execution. The
// bound is on what the join allocates beyond a filtered scan of the
// large table that returns the same 320 rows: that scan decodes every
// row of the table, which no choice of build side changes.
func TestHashJoinBuildAllocs(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE few (id INTEGER PRIMARY KEY, k INTEGER)")
	mustExec(t, s, "CREATE TABLE many (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER)")
	var vals []string
	for i := 0; i < 16; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i))
	}
	mustExec(t, s, "INSERT INTO few (id, k) VALUES "+strings.Join(vals, ", "))
	for base := 0; base < 20000; base += 500 {
		vals = vals[:0]
		for i := base; i < base+500; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d)", i, i%1000, i))
		}
		mustExec(t, s, "INSERT INTO many (id, k, v) VALUES "+strings.Join(vals, ", "))
	}

	perExec := func(q string) float64 {
		t.Helper()
		const runs = 10
		mustExec(t, s, q) // the shape is published, the pool warm
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if res := mustExec(t, s, q); len(res.Rows) != 320 {
				t.Fatalf("%s: %d rows, want 320", q, len(res.Rows))
			}
		}
		runtime.ReadMemStats(&after)
		kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
		t.Logf("%s: %.0f KB per execution", q, kb)
		return kb
	}
	const join = "SELECT f.id, m.v FROM many m JOIN few f ON f.k = m.k"
	if p := mustExec(t, s, join).Plan.String(); !strings.Contains(p, "build=left") {
		t.Fatalf("the join does not build on few:\n%s", p)
	}
	if kb := perExec(join) - perExec("SELECT m.k, m.v FROM many m WHERE m.k < 16"); kb >= 256 {
		t.Errorf("the join allocates %.0f KB per execution beyond scanning many, want < 256 KB", kb)
	}
}

// TestJoinFilterSkipsDecode: a hash join tests its probe scan's rows
// against the build keys before they are materialized, so a probe row
// without a match never copies its text out of the page. Joining 16
// rows to 20,000 with a text payload, 1 % of which match, allocated
// 1,270 KB per execution when every probe row was decoded in full
// before the probe looked at its key; with the join filter it is
// 421 KB. The bound is half the former.
func TestJoinFilterSkipsDecode(t *testing.T) {
	db := bigDB(t) // every page of the probe table stays in the pool
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE few (id INTEGER PRIMARY KEY, k INTEGER)")
	mustExec(t, s, "CREATE TABLE many (id INTEGER PRIMARY KEY, k INTEGER, pay VARCHAR(64))")
	var vals []string
	for i := 0; i < 16; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i))
	}
	mustExec(t, s, "INSERT INTO few (id, k) VALUES "+strings.Join(vals, ", "))
	for base := 0; base < 20000; base += 500 {
		vals = vals[:0]
		for i := base; i < base+500; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, 'payload text of row %06d')", i, i%1600, i))
		}
		mustExec(t, s, "INSERT INTO many (id, k, pay) VALUES "+strings.Join(vals, ", "))
	}
	const q = "SELECT f.id, m.pay FROM many m JOIN few f ON f.k = m.k"
	if p := mustExec(t, s, q).Plan.String(); !strings.Contains(p, "build=left") || !strings.Contains(p, "SeqScan many (as m)") {
		t.Fatalf("the join does not build on few:\n%s", p)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if res := mustExec(t, s, q); len(res.Rows) != 208 {
			t.Fatalf("%d rows, want 208", len(res.Rows))
		}
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("%s: %.0f KB per execution", q, kb)
	if kb >= 635 {
		t.Errorf("the join allocates %.0f KB per execution, want < 635 KB", kb)
	}
}

// TestCachedSelectAdmitsWithoutLocks pins the admission fast path: a
// cached autocommit point select publishes its tables in the session's
// slot and loads the published transaction state — it takes no lock in
// the lock manager and never the transaction registry's mutex, however
// many it runs.
func TestCachedSelectAdmitsWithoutLocks(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)
	mustExec(t, s, "SELECT id, age FROM people WHERE id = 0") // publish the shape

	grants, locked := db.LockStats().Grants, db.txns.locked.Load()
	for i := 0; i < 1000; i++ {
		res, err := s.Exec(fmt.Sprintf("SELECT id, age FROM people WHERE id = %d", i*7%peopleRows))
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("point select %d: %v, %v", i, res, err)
		}
	}
	if g := db.LockStats().Grants; g != grants {
		t.Errorf("1000 cached selects took %d locks", g-grants)
	}
	if l := db.txns.locked.Load(); l != locked {
		t.Errorf("1000 cached selects took the transaction registry's mutex %d times", l-locked)
	}
	if ms := db.MvccStats(); ms.ActiveSnapshots != 0 {
		t.Errorf("%d snapshots active after the selects", ms.ActiveSnapshots)
	}
}

// TestPointSelectAllocs pins the statement fast path: a point select on
// a unique index whose shape is cached lexes once into session buffers,
// binds its literal into the session's parameter vector, descends the
// index once through an iterator that is its own buffer, and builds a
// result of one short row. It stays within 19 allocations and 1.85 KB
// per statement, monitor on (73 allocations and 10.9 KB before the fast
// path; 17 and 1.7 KB measured) — a parser run, a second descent, a
// copied leaf, a snapshot object or a 64-value arena chunk each break the
// bound on their own.
func TestPointSelectAllocs(t *testing.T) { checkPointSelectAllocs(t) }

// TestSampledPointSelectAllocs: attributing a cached point select by
// stage — every one of them sampled here — allocates nothing more.
func TestSampledPointSelectAllocs(t *testing.T) {
	samplePeriod = 1
	defer func() { samplePeriod = stagePeriod }()
	db := checkPointSelectAllocs(t)
	if st := db.Monitor().StageTotals(); st.Samples < 22*64 || st.Ns[stage.Result] == 0 {
		t.Errorf("%d statements sampled, result copy %d ns", st.Samples, st.Ns[stage.Result])
	}
}

func checkPointSelectAllocs(t *testing.T) *DB {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)

	stmts := make([]string, 64)
	for i := range stmts {
		stmts[i] = fmt.Sprintf("SELECT id, age FROM people WHERE id = %d", i*31%peopleRows)
	}
	if p := mustExec(t, s, stmts[0]).Plan; len(p.UsedIndexes) == 0 {
		t.Fatalf("the point select does not use the key index:\n%s", p)
	}
	run := func() {
		for _, q := range stmts {
			res, err := s.Exec(q)
			if err != nil || len(res.Rows) != 1 {
				t.Fatalf("%s: %d rows, %v", q, len(res.Rows), err)
			}
		}
	}
	run() // the shape is published, every page in the pool
	l0, i0, e0 := db.Monitor().TableOps()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(20, run) / float64(len(stmts))
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(21*len(stmts))
	t.Logf("cached point select: %.1f allocs, %.0f B per statement", allocs, bytes)
	if allocs > 19 {
		t.Errorf("cached point select: %.1f allocs per statement, want <= 19", allocs)
	}
	if bytes > 1850 {
		t.Errorf("cached point select: %.0f B per statement, want <= 1.85 KB", bytes)
	}
	// The sensor commit of a cached statement stays out of the monitor's
	// statement table: 64 texts, one shape, no lookup, insert or eviction.
	if l, i, e := db.Monitor().TableOps(); l != l0 || i != i0 || e != e0 {
		t.Errorf("%d cached executions did %d lookups, %d inserts, %d evictions in the statement table",
			21*len(stmts), l-l0, i-i0, e-e0)
	}
	if st := db.Monitor().SnapshotStatements(); st[len(st)-1].Frequency != int64(22*len(stmts)+1) {
		t.Errorf("the point-select shape has frequency %d after %d executions", st[len(st)-1].Frequency, 22*len(stmts)+1)
	}
	return db
}
