package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/ima"
	"repro/internal/monitor"
)

// TestExplainNamesBuildSide: a hash join of a small and a large table
// builds on the small one whichever FROM order names it, and EXPLAIN,
// EXPLAIN ANALYZE and ima_spans all say which input is built, and that
// the probe scan tests its rows against the build keys (sieve=join):
// it yields the 320 of its 2,000 rows that have a match.
func TestExplainNamesBuildSide(t *testing.T) {
	mon := monitor.New(monitor.Config{})
	db, err := engine.Open(engine.Config{Dir: t.TempDir(), PoolPages: 256, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := ima.Register(ima.Sources{DB: db, Mon: mon}); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	defer s.Close()
	exec := func(q string) string {
		t.Helper()
		res, err := s.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var b strings.Builder
		for _, r := range res.Rows {
			for i, v := range r {
				if i > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(v.String())
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	exec("CREATE TABLE small (id INTEGER PRIMARY KEY, k INTEGER)")
	exec("CREATE TABLE large (id INTEGER PRIMARY KEY, k INTEGER)")
	var vals []string
	for i := 0; i < 16; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i))
	}
	exec("INSERT INTO small (id, k) VALUES " + strings.Join(vals, ", "))
	vals = vals[:0]
	for i := 0; i < 2000; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i%100))
	}
	exec("INSERT INTO large (id, k) VALUES " + strings.Join(vals, ", "))

	for _, q := range []string{
		"SELECT s.id, l.id FROM small s JOIN large l ON s.k = l.k",
		"SELECT s.id, l.id FROM large l JOIN small s ON s.k = l.k",
	} {
		plan := exec("EXPLAIN " + q)
		if !strings.Contains(plan, "build=left\n") || !strings.Contains(plan, "HashJoin") ||
			strings.Index(plan, "SeqScan small") > strings.Index(plan, "SeqScan large") {
			t.Errorf("%s: EXPLAIN does not show small as the built left input:\n%s", q, plan)
		}
		if !strings.Contains(plan, "SeqScan large (as l) rows=2000 io=") || strings.Count(plan, " sieve=join\n") != 1 ||
			strings.Index(plan, " sieve=join\n") < strings.Index(plan, "SeqScan large") {
			t.Errorf("%s: EXPLAIN does not mark the probe scan of large sieve=join:\n%s", q, plan)
		}
		analyzed := exec("EXPLAIN ANALYZE " + q)
		if !strings.Contains(analyzed, "HashJoin build=left (est rows=") {
			t.Errorf("%s: EXPLAIN ANALYZE does not name the build side:\n%s", q, analyzed)
		}
		if !strings.Contains(analyzed, "SeqScan large (as l) sieve=join (est rows=2000) (actual rows=320 ") ||
			!strings.Contains(analyzed, "SeqScan small (as s) (est rows=16) (actual rows=16 ") {
			t.Errorf("%s: EXPLAIN ANALYZE does not show the join filter on large:\n%s", q, analyzed)
		}
	}
	if got := exec("SELECT detail FROM ima_spans WHERE op = 'HashJoin'"); got != "build=left\nbuild=left\n" {
		t.Errorf("ima_spans details of the two hash joins = %q, want build=left twice", got)
	}
	if got := exec("SELECT detail, rows FROM ima_spans WHERE op = 'SeqScan' ORDER BY detail"); got !=
		"large (as l) sieve=join 320\nlarge (as l) sieve=join 320\nsmall (as s) 16\nsmall (as s) 16\n" {
		t.Errorf("ima_spans details and rows of the scans = %q, want large's sieve=join with 320 rows twice", got)
	}
	// Over three tables both joins probe with a leaf, a scan and an index
	// range: each marks its own, whatever its left input's join marked.
	const three = "SELECT s.id, l.id, m.id FROM small s JOIN large l ON s.k = l.k JOIN large m ON m.k = l.k WHERE m.id < 3"
	if plan := exec("EXPLAIN " + three); strings.Count(plan, " sieve=join\n") != 2 ||
		!strings.Contains(plan, "SeqScan large (as l) rows=2000 io=") || !strings.Contains(plan, "IndexScan large via pk_large rows=") {
		t.Errorf("EXPLAIN of a three-way join does not mark both probe scans:\n%s", plan)
	}
	if analyzed := exec("EXPLAIN ANALYZE " + three); strings.Count(analyzed, " sieve=join (est rows=") != 2 {
		t.Errorf("EXPLAIN ANALYZE of a three-way join does not mark both probe scans:\n%s", analyzed)
	}
}
