package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

// TestNegativeZeroKeysArePlanIndependent: -0.0 and 0.0 compare equal,
// so every plan that tests equality of FLOAT keys — hash join, loop
// join, a scan's filter, an index probe, DISTINCT and GROUP BY — finds
// the rows a naive scan and sqltypes.Compare say it should.
func TestNegativeZeroKeysArePlanIndependent(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE a (id INTEGER PRIMARY KEY, f FLOAT)")
	mustExec(t, s, "INSERT INTO a (id, f) VALUES (1, -0.0), (2, 0.0), (3, -0.0)")
	mustExec(t, s, "CREATE TABLE b (id INTEGER PRIMARY KEY, f FLOAT)")
	mustExec(t, s, "INSERT INTO b (id, f) VALUES (10, 0.0), (11, -0.0)")
	as := mustExec(t, s, "SELECT f FROM a").Rows
	bs := mustExec(t, s, "SELECT f FROM b").Rows
	if neg := slices.IndexFunc(as, func(r sqltypes.Row) bool { return math.Signbit(r[0].F) }); neg < 0 {
		t.Fatalf("no negative zero stored: %v", as)
	}
	pairs, zeros := 0, 0
	for _, ra := range as {
		for _, rb := range bs {
			if sqltypes.Compare(ra[0], rb[0]) == 0 {
				pairs++
			}
		}
		if sqltypes.Compare(ra[0], sqltypes.NewFloat(0)) == 0 {
			zeros++
		}
	}

	for _, c := range []struct {
		sql, plan string
		want      int
	}{
		{"SELECT a.id, b.id FROM a JOIN b ON a.f = b.f", "HashJoin", pairs},
		{"SELECT a.id, b.id FROM a JOIN b ON a.f <= b.f AND a.f >= b.f", "LoopJoin", pairs},
		{"SELECT id FROM a WHERE f = 0.0", "SeqScan", zeros},
		{"SELECT DISTINCT f FROM a", "Distinct", 1},
		{"SELECT f, COUNT(*) FROM a GROUP BY f", "Agg", 1},
	} {
		res := mustExec(t, s, c.sql)
		if p := res.Plan.String(); !strings.Contains(p, c.plan) {
			t.Errorf("%s: plan has no %s:\n%s", c.sql, c.plan, p)
		}
		if len(res.Rows) != c.want {
			t.Errorf("%s: %d rows, want %d: %v", c.sql, len(res.Rows), c.want, res.Rows)
		}
	}
	if g := mustExec(t, s, "SELECT f, COUNT(*) FROM a GROUP BY f").Rows; len(g) == 1 && g[0][1].I != int64(len(as)) {
		t.Errorf("the one group counts %v rows, want %d", g[0][1], len(as))
	}

	// An index probe for 0.0 finds the -0.0 entries too.
	mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY, f FLOAT)")
	var vals []string
	for i := 0; i < 3000; i++ {
		f := fmt.Sprintf("%d.5", i)
		switch i {
		case 100, 2000:
			f = "-0.0"
		case 1500:
			f = "0.0"
		}
		vals = append(vals, fmt.Sprintf("(%d, %s)", i, f))
	}
	mustExec(t, s, "INSERT INTO t (id, f) VALUES "+strings.Join(vals, ", "))
	mustExec(t, s, "CREATE INDEX af ON t (f)")
	want := 0
	for _, r := range mustExec(t, s, "SELECT f FROM t").Rows {
		if sqltypes.Compare(r[0], sqltypes.NewFloat(0)) == 0 {
			want++
		}
	}
	res := mustExec(t, s, "SELECT COUNT(*) FROM t WHERE f = 0.0")
	if !slices.Contains(res.Plan.UsedIndexes, "af") {
		t.Errorf("the probe does not use af:\n%s", res.Plan)
	}
	if got := res.Rows[0][0].I; got != int64(want) || want != 3 {
		t.Errorf("index probe counts %d of the %d rows equal to 0.0 (3 inserted)", got, want)
	}
}

// TestPrunedScansKeepWholeRows: a scan reads only the columns its plan
// needs, but writes, which find their rows through a SELECT * plan of
// the WHERE, still read and rewrite whole rows, and a virtual table
// yields the listed columns of its full rows.
func TestPrunedScansKeepWholeRows(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)
	mustExec(t, s, "CREATE INDEX people_age ON people (age)")
	before := mustExec(t, s, "SELECT * FROM people WHERE age = 33").Rows
	res := mustExec(t, s, "UPDATE people SET city = 'erfurt' WHERE age = 33")
	if res.RowsAffected != int64(len(before)) || len(before) == 0 {
		t.Fatalf("updated %d of %d rows", res.RowsAffected, len(before))
	}
	after := mustExec(t, s, "SELECT * FROM people WHERE age = 33").Rows
	if len(after) != len(before) {
		t.Fatalf("%d rows after the update, %d before", len(after), len(before))
	}
	for i, r := range after {
		b := before[i]
		if len(r) != 4 || r[0] != b[0] || r[1] != b[1] || r[2] != b[2] || r[3].S != "erfurt" {
			t.Errorf("row %v became %v", b, r)
		}
	}

	full := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewText("one"), sqltypes.NewFloat(1.5)},
		{sqltypes.NewInt(2), sqltypes.NewText("two"), sqltypes.NullValue()},
	}
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "k", Type: sqltypes.Int},
		sqltypes.Column{Name: "label", Type: sqltypes.Text},
		sqltypes.Column{Name: "x", Type: sqltypes.Float},
	)
	if err := db.RegisterVirtual("ima_probe", schema, func() []sqltypes.Row { return full }); err != nil {
		t.Fatal(err)
	}
	got := mustExec(t, s, "SELECT x, k FROM ima_probe WHERE label <> 'zero'").Rows
	if len(got) != len(full) {
		t.Fatalf("virtual rows: %v", got)
	}
	for i, r := range got {
		if len(r) != 2 || r[0] != full[i][2] || r[1] != full[i][0] {
			t.Errorf("virtual row %d = %v, want x and k of %v", i, r, full[i])
		}
	}
	if full[0][1].S != "one" || len(full[0]) != 3 {
		t.Errorf("the provider's rows were changed: %v", full)
	}
}

// TestNaNIsRejected: NaN has no place in the value order, so arithmetic
// that yields it fails like division by zero and no write stores one.
// Were a NaN stored, Compare would call it equal to 5.0 while its index
// key sorts above +Inf, and a sequential scan and an index probe would
// count different rows.
func TestNaNIsRejected(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE n (id INTEGER PRIMARY KEY, f FLOAT)")
	var vals []string
	for i := 2; i <= 400; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d.0)", i, i))
	}
	mustExec(t, s, "INSERT INTO n (id, f) VALUES "+strings.Join(vals, ", "))
	for _, sql := range []string{
		"INSERT INTO n VALUES (1, 1e308 * 10 - 1e308 * 10)",
		"INSERT INTO n VALUES (1, 0 * (1e308 * 10))",
		"INSERT INTO n VALUES (1, (1e308 * 10) / (1e308 * 10))",
		"UPDATE n SET f = f * 1e308 * 10 - f * 1e308 * 10 WHERE id = 5",
	} {
		if _, err := s.Exec(sql); err == nil {
			t.Errorf("%s stored a NaN", sql)
		}
	}
	if err := db.BulkInsert("n", []sqltypes.Row{{sqltypes.NewInt(1), sqltypes.NewFloat(math.NaN())}}); err == nil {
		t.Error("BulkInsert stored a NaN")
	}

	const q = "SELECT COUNT(*) FROM n WHERE f = 5.0"
	seq := mustExec(t, s, q)
	mustExec(t, s, "CREATE INDEX nf ON n (f)")
	idx := mustExec(t, s, q)
	if !strings.Contains(seq.Plan.String(), "SeqScan") || !slices.Contains(idx.Plan.UsedIndexes, "nf") {
		t.Fatalf("plans are not a scan and a probe:\n%s\n%s", seq.Plan, idx.Plan)
	}
	if a, b := seq.Rows[0][0].I, idx.Rows[0][0].I; a != 1 || b != 1 {
		t.Errorf("COUNT(*) WHERE f = 5.0: SeqScan %d, IndexScan %d, want 1", a, b)
	}
	if got := mustExec(t, s, "SELECT COUNT(*) FROM n").Rows[0][0].I; got != 399 {
		t.Errorf("%d rows, want 399", got)
	}
}

// TestNaNAggregateIsAnError: a float SUM or AVG over +Inf and -Inf is
// NaN, and like arithmetic that yields NaN it is an error, serially and
// on the morsel path — not a value that HAVING then calls equal to
// every number.
func TestNaNAggregateIsAnError(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE n (id INTEGER PRIMARY KEY, f FLOAT)")
	mustExec(t, s, "INSERT INTO n VALUES (1, 1e308 * 10), (2, -1e308 * 10), (3, 5.0)")
	for _, sql := range []string{
		"SELECT SUM(f), AVG(f) FROM n",
		"SELECT AVG(f) FROM n",
		"SELECT COUNT(*) FROM n HAVING SUM(f) = 5.0",
	} {
		if _, err := s.Exec(sql); err == nil || !strings.Contains(err.Error(), "yields NaN") {
			t.Errorf("%s: %v; want a yields-NaN error", sql, err)
		}
	}
	if got := mustExec(t, s, "SELECT SUM(f) FROM n WHERE id > 1").Rows[0][0]; !math.IsInf(got.F, -1) {
		t.Errorf("SUM over -Inf and 5.0 = %v, want -Inf", got)
	}

	big := bigDB(t)
	bs := setupBig(t, big)
	mustExec(t, bs, "UPDATE big SET f = 1e308 * 10 WHERE id = 3")
	mustExec(t, bs, "UPDATE big SET f = -1e308 * 10 WHERE id = 18203") // the same group, 3
	bs.SetParallel(8)
	if _, err := bs.Exec("SELECT grp, SUM(f) FROM big GROUP BY grp"); err == nil || !strings.Contains(err.Error(), "yields NaN") {
		t.Errorf("morsel SUM over +Inf and -Inf: %v; want a yields-NaN error", err)
	}
	mustExec(t, bs, "SELECT grp, SUM(v) FROM big GROUP BY grp")
	if big.Stats().ParallelQueries == 0 {
		t.Error("a grouped SUM over big does not take the morsel path")
	}
}
