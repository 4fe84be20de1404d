package sqlparser

import (
	"reflect"
	"strings"
	"testing"
)

func shapeKey(t *testing.T, sc *Scanner, sql string) string {
	t.Helper()
	if err := sc.Scan(sql); err != nil {
		t.Fatalf("scan %q: %v", sql, err)
	}
	return string(sc.Key())
}

func TestShapeKeyMasksLiteralsOnly(t *testing.T) {
	var sc Scanner
	same := [][2]string{
		{"SELECT a FROM t WHERE a = 5", "select a from t where a = 77"},
		{"SELECT a FROM t WHERE s = 'x' AND f < 1.5", "SELECT  a\nFROM t WHERE s = 'it''s' AND f < 2e9"},
		{"SELECT a FROM t WHERE a = -5 LIMIT 3", "SELECT a FROM t WHERE a = -6 LIMIT 4"}, // LIMIT is told apart by the bindings, not the key
		{"INSERT INTO t VALUES (1, 'a')", "insert into t values (2, 'b')"},
	}
	for _, p := range same {
		if a, b := shapeKey(t, &sc, p[0]), shapeKey(t, &sc, p[1]); a != b {
			t.Errorf("keys differ:\n%q -> %q\n%q -> %q", p[0], a, p[1], b)
		}
	}
	differ := [][2]string{
		{"SELECT a FROM t WHERE a = 5", "SELECT a FROM t WHERE a = 5.0"},
		{"SELECT a FROM t WHERE a = 5", "SELECT a FROM t WHERE a = '5'"},
		{"SELECT a FROM t WHERE a = 5", "SELECT a FROM T WHERE a = 5"}, // identifiers are part of the shape as written
		{"SELECT a FROM t WHERE a IN (1, 2)", "SELECT a FROM t WHERE a IN (1, 2, 3)"},
		{"SELECT a FROM t WHERE a = 5", "SELECT a FROM t WHERE a = -5"},
	}
	for _, p := range differ {
		if a, b := shapeKey(t, &sc, p[0]), shapeKey(t, &sc, p[1]); a == b {
			t.Errorf("keys equal for %q and %q: %q", p[0], p[1], a)
		}
	}
}

// The corpus pairs each statement with one of the same shape and other
// literal values. Binding the second one's literals through the first
// one's bindings must give exactly what the parser extracts from the
// second, and the literals the parser left in the text must be the ones
// the bindings leave out.
var bindCorpus = [][2]string{
	{"SELECT a FROM t WHERE a = 5", "SELECT a FROM t WHERE a = 9223372036854775807"},
	{"SELECT a FROM t WHERE a = -5 AND f > -1.5e3 AND s <> 'x'", "SELECT a FROM t WHERE a = -0 AND f > -0.0 AND s <> 'it''s'"},
	{"SELECT a FROM t WHERE a = - -5 AND b = -(6) AND c = -'z'", "SELECT a FROM t WHERE a = - -7 AND b = -(8) AND c = -'y'"},
	{"SELECT a, COUNT(*) FROM t WHERE b > 1 GROUP BY a HAVING COUNT(*) > 2 ORDER BY 2 DESC, 1 LIMIT 7 OFFSET 3",
		"SELECT a, COUNT(*) FROM t WHERE b > 10 GROUP BY a HAVING COUNT(*) > 20 ORDER BY 2 DESC, 1 LIMIT 7 OFFSET 3"},
	{"SELECT a FROM t WHERE a IN (-9, -8, -7) AND b BETWEEN -6 AND 5 AND c LIKE 'p%' ORDER BY a + 1",
		"SELECT a FROM t WHERE a IN (-1, -2, -3) AND b BETWEEN -4 AND 50 AND c LIKE '%q' ORDER BY a + 2"},
	{"EXPLAIN ANALYZE SELECT a FROM t WHERE a = 1 LIMIT 2", "EXPLAIN ANALYZE SELECT a FROM t WHERE a = 3 LIMIT 2"},
	{"INSERT INTO t (a, b) VALUES (1, 'x'), (-2, 'y')", "INSERT INTO t (a, b) VALUES (3, 'z'), (-4, '')"},
	{"UPDATE t SET a = a + 1, b = 'n' WHERE c = 2.5", "UPDATE t SET a = a + 10, b = 'm' WHERE c = 0.25"},
	{"DELETE FROM t WHERE a = 1 OR a = -1", "DELETE FROM t WHERE a = 2 OR a = -2"},
	{"CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(20))", "CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(20))"},
	{"SET parallel = 4", "SET parallel = 4"},
}

func TestBindMatchesParser(t *testing.T) {
	var sc Scanner
	for _, pair := range bindCorpus {
		if err := sc.Scan(pair[0]); err != nil {
			t.Fatal(err)
		}
		first, err := sc.Parse()
		if err != nil {
			t.Fatalf("%s: %v", pair[0], err)
		}
		want, err := ParseNormalized(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Stmt, want.Stmt) || !reflect.DeepEqual(first.Params, want.Params) {
			t.Errorf("%s: Scanner.Parse differs from ParseNormalized", pair[0])
		}
		if len(first.Bindings) != len(sc.Literals()) {
			t.Fatalf("%s: %d bindings for %d literals", pair[0], len(first.Bindings), len(sc.Literals()))
		}
		key := string(sc.Key())

		if got := shapeKey(t, &sc, pair[1]); got != key {
			t.Fatalf("%s and %s differ in shape", pair[0], pair[1])
		}
		second, err := ParseNormalized(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		bound, ok := Bind(nil, sc.Literals(), first.Bindings)
		if !ok {
			t.Fatalf("%s: bind failed", pair[1])
		}
		if len(bound) != len(second.Params) {
			t.Fatalf("%s: bound %d params, parser extracted %d", pair[1], len(bound), len(second.Params))
		}
		for i := range bound {
			if bound[i] != second.Params[i] {
				t.Errorf("%s: param %d bound as %#v, parser extracted %#v", pair[1], i, bound[i], second.Params[i])
			}
		}
		// What the bindings leave unbound is what the parser keeps inline:
		// the bound literals are the extracted parameters, in order, and
		// the unbound ones are the rest of the statement's literals.
		next := int32(0)
		for i, b := range first.Bindings {
			if b.Param >= 0 {
				if b.Param != next {
					t.Errorf("%s: literal %q bound to param %d, want %d", pair[1], sc.Literals()[i].Text, b.Param, next)
				}
				next++
			}
		}
		if fixed := sc.Fixed(first.Bindings); int(next) != len(second.Params) || len(fixed)+len(second.Params) != len(sc.Literals()) {
			t.Errorf("%s: %d bound and %d unbound literals, the parser extracted %d of %d", pair[1], next, len(fixed), len(second.Params), len(sc.Literals()))
		}
	}
}

func TestBindRejectsWhatTheParserRejects(t *testing.T) {
	var sc Scanner
	if err := sc.Scan("SELECT a FROM t WHERE a = 5"); err != nil {
		t.Fatal(err)
	}
	res, err := sc.Parse()
	if err != nil {
		t.Fatal(err)
	}
	const overflow = "SELECT a FROM t WHERE a = 99999999999999999999"
	if err := sc.Scan(overflow); err != nil {
		t.Fatal(err)
	}
	if _, ok := Bind(nil, sc.Literals(), res.Bindings); ok {
		t.Error("bind accepted an integer the parser rejects")
	}
	if _, err := ParseNormalized(overflow); err == nil {
		t.Error("parser accepted an out-of-range integer")
	}
}

func TestLongStatementsHaveNoShapeKey(t *testing.T) {
	var sc Scanner
	var b strings.Builder
	b.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(1, 'x')")
	}
	if err := sc.Scan(b.String()); err != nil {
		t.Fatal(err)
	}
	if sc.Key() != nil {
		t.Errorf("a %d-byte statement got a %d-byte shape key", b.Len(), len(sc.Key()))
	}
	res, err := sc.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Params) != 4000 || res.Bindings != nil {
		t.Errorf("long INSERT: %d params, %d bindings", len(res.Params), len(res.Bindings))
	}
	// The scanner recovers for the next statement.
	if shapeKey(t, &sc, "SELECT 1") == "" {
		t.Error("no key after a long statement")
	}
}
