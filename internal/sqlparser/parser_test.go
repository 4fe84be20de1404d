package sqlparser

import (
	"reflect"
	"testing"

	"repro/internal/sqltypes"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return st
}

func TestParseSimpleSelect(t *testing.T) {
	st := mustParse(t, "SELECT a, b FROM t WHERE a = 5").(*SelectStmt)
	if len(st.Items) != 2 || len(st.From) != 1 || st.From[0].Name != "t" {
		t.Fatalf("unexpected AST: %+v", st)
	}
	be, ok := st.Where.(BinaryExpr)
	if !ok || be.Op != "=" {
		t.Fatalf("Where = %#v", st.Where)
	}
	if cr, ok := be.Left.(ColumnRef); !ok || cr.Name != "a" {
		t.Fatalf("left = %#v", be.Left)
	}
	if lit, ok := be.Right.(Literal); !ok || lit.Val.I != 5 {
		t.Fatalf("right = %#v", be.Right)
	}
}

func TestParseSelectStarAndAliases(t *testing.T) {
	st := mustParse(t, "select p.*, count(*) as cnt from protein p").(*SelectStmt)
	if !st.Items[0].Star || st.Items[0].Table != "p" {
		t.Errorf("first item: %+v", st.Items[0])
	}
	if st.Items[1].Alias != "cnt" {
		t.Errorf("second item alias: %+v", st.Items[1])
	}
	if st.From[0].Alias != "p" || st.From[0].AliasOrName() != "p" {
		t.Errorf("alias: %+v", st.From[0])
	}
}

func TestParseExplicitJoin(t *testing.T) {
	sql := "select p.nref_id, sequence, ordinal from protein p join organism o on p.nref_id = o.nref_id where p.nref_id = 'NF001'"
	st := mustParse(t, sql).(*SelectStmt)
	if len(st.From) != 1 || len(st.Joins) != 1 {
		t.Fatalf("from/joins: %d/%d", len(st.From), len(st.Joins))
	}
	if st.Joins[0].Table.AliasOrName() != "o" {
		t.Errorf("join alias: %+v", st.Joins[0].Table)
	}
	if st.Joins[0].Cond == nil {
		t.Error("missing join condition")
	}
	tables := ReferencedTables(st)
	if !reflect.DeepEqual(tables, []string{"protein", "organism"}) {
		t.Errorf("ReferencedTables = %v", tables)
	}
}

func TestParseCommaJoinAndOperatorPrecedence(t *testing.T) {
	st := mustParse(t, "SELECT * FROM a, b WHERE a.x = b.y AND a.z > 3 OR NOT a.w = 1").(*SelectStmt)
	if len(st.From) != 2 {
		t.Fatalf("From = %+v", st.From)
	}
	or, ok := st.Where.(BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top op should be OR: %#v", st.Where)
	}
	and, ok := or.Left.(BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("left of OR should be AND: %#v", or.Left)
	}
	not, ok := or.Right.(UnaryExpr)
	if !ok || not.Op != "NOT" {
		t.Fatalf("right of OR should be NOT: %#v", or.Right)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	st := mustParse(t, "SELECT 1 + 2 * 3 - 4 FROM t").(*SelectStmt)
	// ((1 + (2*3)) - 4)
	top := st.Items[0].Expr.(BinaryExpr)
	if top.Op != "-" {
		t.Fatalf("top = %v", top.Op)
	}
	add := top.Left.(BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("add = %v", add.Op)
	}
	mul := add.Right.(BinaryExpr)
	if mul.Op != "*" {
		t.Fatalf("mul = %v", mul.Op)
	}
}

func TestParseGroupHavingOrderLimit(t *testing.T) {
	sql := `SELECT taxonomy_id, COUNT(*), AVG(length) FROM protein
	        GROUP BY taxonomy_id HAVING COUNT(*) > 10
	        ORDER BY taxonomy_id DESC, 2 ASC LIMIT 20 OFFSET 5`
	st := mustParse(t, sql).(*SelectStmt)
	if len(st.GroupBy) != 1 || st.Having == nil {
		t.Fatalf("group/having: %+v", st)
	}
	if len(st.OrderBy) != 2 || !st.OrderBy[0].Desc || st.OrderBy[1].Desc {
		t.Fatalf("order: %+v", st.OrderBy)
	}
	if st.Limit != 20 || st.Offset != 5 {
		t.Fatalf("limit/offset: %d/%d", st.Limit, st.Offset)
	}
}

func TestParsePredicates(t *testing.T) {
	st := mustParse(t, "SELECT * FROM t WHERE a IN (1, 2, 3) AND b BETWEEN 4 AND 5 AND c IS NOT NULL AND d LIKE 'x%' AND e NOT IN (9)").(*SelectStmt)
	var in, between, isnull, like, notin int
	WalkExprs(st.Where, func(e Expr) {
		switch x := e.(type) {
		case InExpr:
			if x.Not {
				notin++
			} else {
				in++
			}
		case BetweenExpr:
			between++
		case IsNullExpr:
			if x.Not {
				isnull++
			}
		case BinaryExpr:
			if x.Op == "LIKE" {
				like++
			}
		}
	})
	if in != 1 || between != 1 || isnull != 1 || like != 1 || notin != 1 {
		t.Errorf("predicate counts: in=%d between=%d isnotnull=%d like=%d notin=%d",
			in, between, isnull, like, notin)
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	st := mustParse(t, "SELECT * FROM t WHERE a = -5 AND b = -2.5").(*SelectStmt)
	var ints []int64
	var floats []float64
	WalkExprs(st.Where, func(e Expr) {
		if lit, ok := e.(Literal); ok {
			switch lit.Val.T {
			case sqltypes.Int:
				ints = append(ints, lit.Val.I)
			case sqltypes.Float:
				floats = append(floats, lit.Val.F)
			}
		}
	})
	if len(ints) != 1 || ints[0] != -5 || len(floats) != 1 || floats[0] != -2.5 {
		t.Errorf("literals: %v %v", ints, floats)
	}
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, `CREATE TABLE protein (
		nref_id VARCHAR(32) PRIMARY KEY,
		taxonomy_id INTEGER,
		mol_weight FLOAT,
		name TEXT
	)`).(*CreateTableStmt)
	if st.Name != "protein" || len(st.Columns) != 4 {
		t.Fatalf("AST: %+v", st)
	}
	if !st.Columns[0].PrimaryKey || st.Columns[0].Type != sqltypes.Text {
		t.Errorf("col0: %+v", st.Columns[0])
	}
	if st.Columns[1].Type != sqltypes.Int || st.Columns[2].Type != sqltypes.Float {
		t.Errorf("types: %+v", st.Columns)
	}

	st2 := mustParse(t, "CREATE TABLE IF NOT EXISTS t (a INT, b INT, PRIMARY KEY (a, b))").(*CreateTableStmt)
	if !st2.IfNotExists || !reflect.DeepEqual(st2.PrimaryKey, []string{"a", "b"}) {
		t.Errorf("AST: %+v", st2)
	}
}

func TestParseIndexStatements(t *testing.T) {
	ci := mustParse(t, "CREATE INDEX ix_tax ON protein (taxonomy_id)").(*CreateIndexStmt)
	if ci.Name != "ix_tax" || ci.Table != "protein" || ci.Virtual || ci.Unique {
		t.Errorf("AST: %+v", ci)
	}
	vi := mustParse(t, "CREATE VIRTUAL INDEX vx ON protein (name, length)").(*CreateIndexStmt)
	if !vi.Virtual || len(vi.Columns) != 2 {
		t.Errorf("AST: %+v", vi)
	}
	ui := mustParse(t, "CREATE UNIQUE INDEX ux ON t (a)").(*CreateIndexStmt)
	if !ui.Unique {
		t.Errorf("AST: %+v", ui)
	}
	di := mustParse(t, "DROP INDEX IF EXISTS ix_tax").(*DropIndexStmt)
	if di.Name != "ix_tax" || !di.IfExists {
		t.Errorf("AST: %+v", di)
	}
}

func TestParseDML(t *testing.T) {
	ins := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").(*InsertStmt)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Fatalf("AST: %+v", ins)
	}
	up := mustParse(t, "UPDATE t SET a = a + 1, b = 'z' WHERE a < 10").(*UpdateStmt)
	if len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("AST: %+v", up)
	}
	del := mustParse(t, "DELETE FROM t WHERE b = 'y'").(*DeleteStmt)
	if del.Table != "t" || del.Where == nil {
		t.Fatalf("AST: %+v", del)
	}
}

func TestParseModifyAndStatistics(t *testing.T) {
	m := mustParse(t, "MODIFY protein TO BTREE ON nref_id").(*ModifyStmt)
	if m.Structure != "BTREE" || !reflect.DeepEqual(m.KeyCols, []string{"nref_id"}) {
		t.Errorf("AST: %+v", m)
	}
	m2 := mustParse(t, "MODIFY protein TO HEAP").(*ModifyStmt)
	if m2.Structure != "HEAP" {
		t.Errorf("AST: %+v", m2)
	}
	cs := mustParse(t, "CREATE STATISTICS FOR protein (taxonomy_id, length)").(*CreateStatisticsStmt)
	if cs.Table != "protein" || len(cs.Columns) != 2 {
		t.Errorf("AST: %+v", cs)
	}
	cs2 := mustParse(t, "CREATE STATISTICS FOR protein").(*CreateStatisticsStmt)
	if len(cs2.Columns) != 0 {
		t.Errorf("AST: %+v", cs2)
	}
}

func TestParseKeywordsAsIdentifiers(t *testing.T) {
	// "key" and "text" are keywords but are common column names.
	st := mustParse(t, "SELECT key, text FROM statements WHERE key = 5").(*SelectStmt)
	if cr, ok := st.Items[0].Expr.(ColumnRef); !ok || cr.Name != "key" {
		t.Errorf("item0: %#v", st.Items[0].Expr)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t GROUP",
		"INSERT INTO t VALUES",
		"INSERT t VALUES (1)",
		"CREATE TABLE t",
		"CREATE TABLE t (a)",
		"CREATE TABLE t (a BOGUS)",
		"CREATE INDEX i ON t",
		"MODIFY t TO HASH",
		"DROP VIEW v",
		"UPDATE t SET",
		"SELECT * FROM t WHERE a = 'unterminated",
		"SELECT * FROM t; SELECT * FROM u",
		"SELECT * FROM t WHERE a ! b",
		"SELECT * FROM t LIMIT x",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", sql)
		}
	}
}

func TestParseNormalizedExtractsParams(t *testing.T) {
	r1, err := ParseNormalized("SELECT a FROM t WHERE a = 5 AND b = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ParseNormalized("select a from t where a = 99 and b = 'other'")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Stmt, r2.Stmt) {
		t.Errorf("statements differing in literals parse differently:\n%+v\n%+v", r1.Stmt, r2.Stmt)
	}
	if len(r1.Params) != 2 || r1.Params[0].I != 5 || r1.Params[1].S != "x" {
		t.Errorf("params: %v", r1.Params)
	}
	if len(r2.Params) != 2 || r2.Params[0].I != 99 || r2.Params[1].S != "other" {
		t.Errorf("params: %v", r2.Params)
	}
	// The WHERE clause must reference Param nodes now.
	var nparams int
	WalkExprs(r1.Stmt.(*SelectStmt).Where, func(e Expr) {
		if _, ok := e.(Param); ok {
			nparams++
		}
	})
	if nparams != 2 {
		t.Errorf("Param nodes in AST: %d", nparams)
	}
}

func TestParseNormalizedNegativeParam(t *testing.T) {
	r, err := ParseNormalized("SELECT a FROM t WHERE a = -42")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Params) != 1 || r.Params[0].I != -42 {
		t.Fatalf("params: %v", r.Params)
	}
}

func TestParseNormalizedKeepsLimitInline(t *testing.T) {
	r1, _ := ParseNormalized("SELECT a FROM t LIMIT 10")
	r2, _ := ParseNormalized("SELECT a FROM t LIMIT 20")
	if reflect.DeepEqual(r1.Stmt, r2.Stmt) || len(r1.Params) != 0 {
		t.Error("different LIMITs must not share a plan shape")
	}
}

func TestParseComments(t *testing.T) {
	st := mustParse(t, "SELECT a -- trailing comment\nFROM t -- another\n").(*SelectStmt)
	if len(st.Items) != 1 || st.From[0].Name != "t" {
		t.Errorf("AST: %+v", st)
	}
}

func TestParseStringEscapes(t *testing.T) {
	st := mustParse(t, "SELECT * FROM t WHERE a = 'o''neil'").(*SelectStmt)
	lit := st.Where.(BinaryExpr).Right.(Literal)
	if lit.Val.S != "o'neil" {
		t.Errorf("escaped string = %q", lit.Val.S)
	}
}

func TestParseFloatForms(t *testing.T) {
	for _, sql := range []string{
		"SELECT * FROM t WHERE a = 1.5",
		"SELECT * FROM t WHERE a = 1.5e3",
		"SELECT * FROM t WHERE a = 2E-2",
	} {
		if _, err := Parse(sql); err != nil {
			t.Errorf("Parse(%q): %v", sql, err)
		}
	}
	if _, err := Parse("SELECT * FROM t WHERE a = 1e"); err == nil {
		t.Error("malformed exponent accepted")
	}
}

func TestNormalizedIsStable(t *testing.T) {
	r, err := ParseNormalized("SELECT  A,B FROM  T  WHERE a=1")
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := ParseNormalized("select A , B from T where a = 2")
	if !reflect.DeepEqual(r.Stmt, r2.Stmt) {
		t.Errorf("keyword case and spacing should normalize away:\n%+v\n%+v", r.Stmt, r2.Stmt)
	}
}
