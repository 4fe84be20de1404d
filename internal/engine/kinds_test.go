package engine

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestKindTableCoversEveryStatement: the statement-kind table has
// exactly one row for each type of package sqlparser with a stmt()
// method — found by parsing the package's source, so a statement type
// added without a row fails here — kindOf finds each row, and every row
// carries the kind name the monitor has always reported for its type.
func TestKindTableCoversEveryStatement(t *testing.T) {
	files, err := filepath.Glob("../sqlparser/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	types := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range af.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "stmt" {
				continue
			}
			recv, star := fd.Recv.List[0].Type, ""
			if se, ok := recv.(*ast.StarExpr); ok {
				recv, star = se.X, "*"
			}
			types[star+"sqlparser."+recv.(*ast.Ident).Name] = true
		}
	}
	if len(types) == 0 {
		t.Fatal("found no statement type in ../sqlparser")
	}

	names := map[string]string{
		"*sqlparser.SelectStmt":           "SELECT",
		"*sqlparser.InsertStmt":           "INSERT",
		"*sqlparser.UpdateStmt":           "UPDATE",
		"*sqlparser.DeleteStmt":           "DELETE",
		"*sqlparser.ExplainStmt":          "EXPLAIN",
		"*sqlparser.SetStmt":              "SET",
		"*sqlparser.CreateStatisticsStmt": "CREATE STATISTICS",
		"*sqlparser.CreateTableStmt":      "CREATE TABLE",
		"*sqlparser.DropTableStmt":        "DROP TABLE",
		"*sqlparser.ModifyStmt":           "MODIFY",
		"*sqlparser.CreateIndexStmt":      "CREATE INDEX",
		"*sqlparser.DropIndexStmt":        "DROP INDEX",
	}
	rows := map[string]int{}
	for _, k := range stmtKinds {
		typ := fmt.Sprintf("%T", k.nilOf)
		rows[typ]++
		if !types[typ] {
			t.Errorf("row %q is for %s, which is no statement type", k.name, typ)
		}
		if kindOf(k.nilOf) != k {
			t.Errorf("kindOf(%s) is not the row %q", typ, k.name)
		}
		if want, ok := names[typ]; ok && k.name != want {
			t.Errorf("%s is kind %q, the monitor has always called it %q", typ, k.name, want)
		}
	}
	for typ := range types {
		if rows[typ] != 1 {
			t.Errorf("statement type %s has %d rows in the kind table, want 1", typ, rows[typ])
		}
	}
}
