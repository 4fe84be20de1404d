package sqlparser

import (
	"strings"

	"repro/internal/sqltypes"
)

// Statement is the interface implemented by all parsed statements.
type Statement interface {
	stmt()
	// Kind returns a short tag ("SELECT", "INSERT", ...) used by the
	// monitor and the statement cache.
	Kind() string
}

// Expr is the interface implemented by all expression nodes.
type Expr interface{ expr() }

// ColumnRef names a column, optionally qualified ("t.a" or "a").
type ColumnRef struct {
	Table string // may be empty
	Name  string
}

// Literal is a constant value in the statement text.
type Literal struct {
	Val sqltypes.Value
}

// Param is a literal extracted by the normalizer; Idx indexes into the
// statement's parameter list.
type Param struct {
	Idx int
}

// BinaryExpr applies Op to two operands. Ops: = <> < <= > >= + - * / %
// AND OR LIKE.
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

// UnaryExpr applies Op ("NOT" or "-") to an operand.
type UnaryExpr struct {
	Op      string
	Operand Expr
}

// InExpr tests membership: Expr [NOT] IN (list).
type InExpr struct {
	Not  bool
	Expr Expr
	List []Expr
}

// BetweenExpr tests Expr [NOT] BETWEEN Lo AND Hi.
type BetweenExpr struct {
	Not    bool
	Expr   Expr
	Lo, Hi Expr
}

// IsNullExpr tests Expr IS [NOT] NULL.
type IsNullExpr struct {
	Not  bool
	Expr Expr
}

// FuncCall is an aggregate or scalar function call. Star marks
// COUNT(*).
type FuncCall struct {
	Name     string // upper-cased
	Star     bool
	Distinct bool
	Args     []Expr
}

func (ColumnRef) expr()   {}
func (Literal) expr()     {}
func (Param) expr()       {}
func (BinaryExpr) expr()  {}
func (UnaryExpr) expr()   {}
func (InExpr) expr()      {}
func (BetweenExpr) expr() {}
func (IsNullExpr) expr()  {}
func (FuncCall) expr()    {}

// SelectItem is one output column of a SELECT.
type SelectItem struct {
	Star  bool   // bare * or t.*
	Table string // qualifier for t.*
	Expr  Expr
	Alias string
}

// TableRef names a base table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// AliasOrName returns the alias if present, else the table name.
func (t TableRef) AliasOrName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is an explicit "JOIN t ON cond" member of the FROM list.
type JoinClause struct {
	Table TableRef
	Cond  Expr // nil for a plain cross member
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a parsed SELECT.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Joins    []JoinClause // explicit JOIN ... ON appended after From[0]
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 if absent
	Offset   int64 // 0 if absent
}

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       sqltypes.Type
	PrimaryKey bool
}

// CreateTableStmt creates a base table.
type CreateTableStmt struct {
	Name        string
	IfNotExists bool
	Columns     []ColumnDef
	PrimaryKey  []string // from a table-level PRIMARY KEY (...) clause
}

// DropTableStmt drops a base table.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

// CreateIndexStmt creates a secondary index. Virtual indexes exist only
// in the catalog: the optimizer may cost them but the executor refuses
// to use them (the AutoAdmin-style what-if mechanism).
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
	Virtual bool
}

// DropIndexStmt drops a secondary index.
type DropIndexStmt struct {
	Name     string
	IfExists bool
}

// InsertStmt inserts literal rows.
type InsertStmt struct {
	Table   string
	Columns []string // optional
	Rows    [][]Expr
}

// UpdateStmt updates rows in place.
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where Expr
}

// SetClause is one "col = expr" assignment.
type SetClause struct {
	Column string
	Expr   Expr
}

// DeleteStmt deletes rows.
type DeleteStmt struct {
	Table string
	Where Expr
}

// ModifyStmt changes a table's storage structure, rebuilding it:
// MODIFY t TO BTREE [ON col, ...] | MODIFY t TO HEAP.
type ModifyStmt struct {
	Table     string
	Structure string   // "BTREE" or "HEAP"
	KeyCols   []string // for BTREE; defaults to the primary key
}

// ExplainStmt plans a SELECT: EXPLAIN [WHATIF|ANALYZE] SELECT ... .
// WHATIF admits virtual indexes, exposing the analyzer's what-if
// interface directly in SQL. ANALYZE also executes the statement and
// annotates every operator with actual rows and time next to the
// optimizer's estimates (WHATIF and ANALYZE are mutually exclusive:
// virtual indexes cannot be executed).
type ExplainStmt struct {
	WhatIf  bool
	Analyze bool
	Select  *SelectStmt
}

// CreateStatisticsStmt collects histograms, the equivalent of Ingres
// optimizedb: CREATE STATISTICS FOR t [(col, ...)].
type CreateStatisticsStmt struct {
	Table   string
	Columns []string // empty = all columns
}

// SetStmt is a session configuration statement: SET <name> [=] <int>
// (for example SET PARALLEL 4). The name is lower-cased by the parser.
type SetStmt struct {
	Name  string
	Value int64
}

func (*SelectStmt) stmt()           {}
func (*CreateTableStmt) stmt()      {}
func (*DropTableStmt) stmt()        {}
func (*CreateIndexStmt) stmt()      {}
func (*DropIndexStmt) stmt()        {}
func (*InsertStmt) stmt()           {}
func (*UpdateStmt) stmt()           {}
func (*DeleteStmt) stmt()           {}
func (*ModifyStmt) stmt()           {}
func (*CreateStatisticsStmt) stmt() {}
func (*ExplainStmt) stmt()          {}
func (*SetStmt) stmt()              {}

func (*SelectStmt) Kind() string           { return "SELECT" }
func (*CreateTableStmt) Kind() string      { return "CREATE TABLE" }
func (*DropTableStmt) Kind() string        { return "DROP TABLE" }
func (*CreateIndexStmt) Kind() string      { return "CREATE INDEX" }
func (*DropIndexStmt) Kind() string        { return "DROP INDEX" }
func (*InsertStmt) Kind() string           { return "INSERT" }
func (*UpdateStmt) Kind() string           { return "UPDATE" }
func (*DeleteStmt) Kind() string           { return "DELETE" }
func (*ModifyStmt) Kind() string           { return "MODIFY" }
func (*CreateStatisticsStmt) Kind() string { return "CREATE STATISTICS" }
func (*ExplainStmt) Kind() string          { return "EXPLAIN" }
func (*SetStmt) Kind() string              { return "SET" }

// ReferencedTables lists every table named in the statement, in
// first-appearance order. Used by statement admission and the monitor.
func ReferencedTables(s Statement) []string {
	var out []string
	seen := map[string]bool{}
	add := func(name string) {
		key := strings.ToLower(name)
		if name != "" && !seen[key] {
			seen[key] = true
			out = append(out, name)
		}
	}
	switch st := s.(type) {
	case *SelectStmt:
		for _, t := range st.From {
			add(t.Name)
		}
		for _, j := range st.Joins {
			add(j.Table.Name)
		}
	case *InsertStmt:
		add(st.Table)
	case *UpdateStmt:
		add(st.Table)
	case *DeleteStmt:
		add(st.Table)
	case *CreateIndexStmt:
		add(st.Table)
	case *ModifyStmt:
		add(st.Table)
	case *CreateStatisticsStmt:
		add(st.Table)
	case *CreateTableStmt:
		add(st.Name)
	case *DropTableStmt:
		add(st.Name)
	case *ExplainStmt:
		return ReferencedTables(st.Select)
	}
	return out
}

// WalkExprs calls fn for every expression node reachable from e,
// including e itself.
func WalkExprs(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case BinaryExpr:
		WalkExprs(x.Left, fn)
		WalkExprs(x.Right, fn)
	case UnaryExpr:
		WalkExprs(x.Operand, fn)
	case InExpr:
		WalkExprs(x.Expr, fn)
		for _, it := range x.List {
			WalkExprs(it, fn)
		}
	case BetweenExpr:
		WalkExprs(x.Expr, fn)
		WalkExprs(x.Lo, fn)
		WalkExprs(x.Hi, fn)
	case IsNullExpr:
		WalkExprs(x.Expr, fn)
	case FuncCall:
		for _, a := range x.Args {
			WalkExprs(a, fn)
		}
	}
}
