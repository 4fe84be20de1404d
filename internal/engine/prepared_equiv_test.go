package engine_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/nref"
	"repro/internal/sqltypes"
)

const equivScale = 400

// equivStream is a read-only stream in which most statements repeat an
// earlier statement's shape with other literal values (cache hits) and
// some repeat a text outright: the internal/nref templates, LIMIT n
// variants, negative literals, quoted strings, IN lists of several
// lengths and keyword case.
func equivStream() []string {
	var s []string
	for i := 0; i < 60; i++ {
		s = append(s, nref.PointSelectStatement(i*13, equivScale))
	}
	for i := 0; i < 20; i++ {
		s = append(s, fmt.Sprintf("SELECT p.nref_id, o.organism_name, o.taxonomy_id FROM protein p JOIN organism o ON p.nref_id = o.nref_id WHERE p.nref_id = '%s'",
			nref.NrefID(i*7%equivScale)))
	}
	s = append(s, nref.Complex50(equivScale)...)
	s = append(s, nref.Complex50(equivScale)[:10]...) // same texts again
	for _, n := range []int{5, 6, 5, 7, 6} {
		s = append(s, fmt.Sprintf("SELECT nref_id, length FROM protein WHERE length > %d ORDER BY length DESC, nref_id LIMIT %d", 90+n, n))
		s = append(s, fmt.Sprintf("SELECT nref_id, length FROM protein ORDER BY 2, 1 LIMIT %d OFFSET %d", n, n-4))
	}
	s = append(s,
		"SELECT nref_id FROM protein WHERE length > -1 AND mol_weight > -2.5 ORDER BY nref_id LIMIT 3",
		"SELECT nref_id FROM protein WHERE length > -100 AND mol_weight > -0.5 ORDER BY nref_id LIMIT 3",
		"SELECT nref_id FROM protein WHERE length > - -7 ORDER BY nref_id LIMIT 3",
		"SELECT nref_id FROM protein WHERE length > - -9 ORDER BY nref_id LIMIT 3",
		"SELECT nref_id FROM protein WHERE name = 'it''s' OR name = 'protein 7'",
		"SELECT nref_id FROM protein WHERE name = 'x''y''z' OR name = 'protein 8'",
		"SELECT nref_id FROM protein WHERE length IN (100, 200, 300) ORDER BY nref_id",
		"SELECT nref_id FROM protein WHERE length IN (110, 210, 310) ORDER BY nref_id",
		"SELECT nref_id FROM protein WHERE length IN (100, 200) ORDER BY nref_id",
		"SELECT nref_id FROM protein WHERE length IN (120, 220) ORDER BY nref_id",
		"select nref_id from protein where length in (130, 230) order by nref_id",
		"Select p.nref_id From protein p Where p.nref_id = '"+nref.NrefID(5)+"'",
		"SELECT COUNT(*) FROM protein WHERE length BETWEEN 100 AND 200",
		"SELECT COUNT(*) FROM protein WHERE length BETWEEN 150 AND 250",
		"SELECT nref_id FROM protein WHERE length = 99999999999999999999", // parser error on the miss and on the would-be hit
		"SELECT nref_id FROM protein WHERE length = 5",
		"SELECT nref_id FROM protein WHERE length = 99999999999999999999",
		"SELECT nosuch FROM protein WHERE length = 5",
		"SELECT nosuch FROM protein WHERE length = 6",
	)
	return s
}

type equivSystem struct {
	sys  *core.System
	sess *engine.Session
}

func openEquiv(t *testing.T) equivSystem {
	t.Helper()
	sys, err := core.Open(core.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := nref.NewGenerator(equivScale, 3).Load(sys.DB); err != nil {
		t.Fatal(err)
	}
	return equivSystem{sys: sys, sess: sys.Session()}
}

// outcome renders everything a caller sees of one execution.
func outcome(res *engine.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "columns %v affected %d\n", res.Columns, res.RowsAffected)
	if res.Plan != nil {
		b.WriteString(res.Plan.String())
		fmt.Fprintf(&b, "est %v attrs %v indexes %v\n", res.Plan.Est, sorted(res.Plan.Attributes), res.Plan.UsedIndexes)
	}
	for _, r := range res.Rows {
		fmt.Fprintln(&b, r)
	}
	return b.String()
}

func sorted(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// imaDump reads the monitoring relations without their clock columns,
// each as a sorted list of rows (the order of one statement's attribute
// references follows a map iteration in the optimizer).
func imaDump(t *testing.T, s *engine.Session) []string {
	t.Helper()
	var out []string
	for _, q := range []string{
		"SELECT hash, query_text, frequency FROM ima_statements",
		// Per statement, not per row: cached executions arrive summed.
		"SELECT hash, SUM(executions), SUM(exec_cpu), SUM(exec_io), SUM(est_cpu), SUM(est_io), SUM(est_rows), SUM(rows), SUM(error) FROM ima_workload GROUP BY hash",
		"SELECT hash, obj_type, obj_name, table_name FROM ima_references",
		"SELECT table_name, frequency, row_count FROM ima_tables",
		"SELECT attr_name, table_name, frequency FROM ima_attributes",
		"SELECT index_name, table_name, frequency, is_virtual FROM ima_indexes",
	} {
		res, err := s.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, r := range res.Rows {
			// Nine digits of a float: a sum of n equal estimates and n
			// times the estimate differ in the last bit.
			for i, v := range r {
				if v.T == sqltypes.Float {
					r[i] = sqltypes.NewText(fmt.Sprintf("%.9g", v.F))
				}
			}
			rows = append(rows, fmt.Sprint(r))
		}
		sort.Strings(rows)
		out = append(out, q)
		out = append(out, rows...)
	}
	return out
}

// A statement served from the prepared-statement cache is
// indistinguishable from the same statement parsed and planned afresh:
// same rows, columns and Result.Plan, same error, and the same
// ima_statements, ima_workload, ima_references, ima_tables,
// ima_attributes and ima_indexes contents at the end of the stream. The
// second system drops its cache before every statement, so each one
// takes the parser's and the optimizer's road. (No statistics exist, so
// a plan does not depend on the literal values it was made with.)
func TestPreparedHitEqualsForcedMiss(t *testing.T) {
	cached, fresh := openEquiv(t), openEquiv(t)
	for i, sql := range equivStream() {
		got := outcome(cached.sess.Exec(sql))
		fresh.sys.DB.InvalidatePlans()
		want := outcome(fresh.sess.Exec(sql))
		if got != want {
			t.Fatalf("statement %d %q:\ncached:\n%s\nfresh:\n%s", i, sql, got, want)
		}
	}
	fresh.sys.DB.InvalidatePlans()
	got, want := imaDump(t, cached.sess), imaDump(t, fresh.sess)
	if len(got) != len(want) {
		t.Fatalf("monitoring relations: %d lines cached, %d fresh", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("monitoring relations differ:\ncached: %s\nfresh:  %s", got[i], want[i])
		}
	}
}

// A hit hands out the entry's plan itself, and rows that belong to the
// caller: running the shape again leaves an earlier result untouched.
func TestPreparedHitSharesPlanNotRows(t *testing.T) {
	es := openEquiv(t)
	first, err := es.sess.Exec(nref.PointSelectStatement(1, equivScale))
	if err != nil {
		t.Fatal(err)
	}
	kept := fmt.Sprint(first.Rows)
	second, err := es.sess.Exec(nref.PointSelectStatement(2, equivScale))
	if err != nil {
		t.Fatal(err)
	}
	if first.Plan != second.Plan {
		t.Error("two statements of one shape got different plan objects: the second was not a cache hit")
	}
	if fmt.Sprint(first.Rows) != kept || fmt.Sprint(second.Rows) == kept {
		t.Errorf("rows after a second execution: first %v (was %s), second %v", first.Rows, kept, second.Rows)
	}
}
