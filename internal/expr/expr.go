// Package expr compiles parser expression ASTs against a row layout
// and evaluates them with SQL three-valued-logic semantics. Compiled
// expressions are immutable and safe for concurrent evaluation with
// separate environments.
package expr

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// Env carries the per-row evaluation state.
type Env struct {
	Row    sqltypes.Row     // combined input row
	Params []sqltypes.Value // bound statement parameters
}

// Compiled is an executable expression.
type Compiled interface {
	Eval(env *Env) (sqltypes.Value, error)
}

// Resolver maps a (table qualifier, column name) pair to an offset in
// the combined row and the column's declared type.
type Resolver interface {
	Resolve(table, column string) (int, sqltypes.Type, error)
}

// Bind compiles a parser expression against a resolver. Aggregate
// function calls are rejected — the executor rewrites them to column
// references over aggregated rows before binding.
func Bind(e sqlparser.Expr, r Resolver) (Compiled, error) {
	switch x := e.(type) {
	case sqlparser.Literal:
		return litNode{v: x.Val}, nil
	case sqlparser.Param:
		return paramNode{idx: x.Idx}, nil
	case sqlparser.ColumnRef:
		idx, _, err := r.Resolve(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		return colNode{idx: idx}, nil
	case sqlparser.BinaryExpr:
		l, err := Bind(x.Left, r)
		if err != nil {
			return nil, err
		}
		rt, err := Bind(x.Right, r)
		if err != nil {
			return nil, err
		}
		op, ok := binOps[x.Op]
		if !ok {
			return nil, fmt.Errorf("expr: unsupported operator %q", x.Op)
		}
		return binNode{op: op, opName: x.Op, l: l, r: rt}, nil
	case sqlparser.UnaryExpr:
		operand, err := Bind(x.Operand, r)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			return notNode{operand}, nil
		case "-":
			return negNode{operand}, nil
		}
		return nil, fmt.Errorf("expr: unsupported unary operator %q", x.Op)
	case sqlparser.InExpr:
		needle, err := Bind(x.Expr, r)
		if err != nil {
			return nil, err
		}
		list := make([]Compiled, len(x.List))
		for i, it := range x.List {
			if list[i], err = Bind(it, r); err != nil {
				return nil, err
			}
		}
		return inNode{not: x.Not, needle: needle, list: list}, nil
	case sqlparser.BetweenExpr:
		v, err := Bind(x.Expr, r)
		if err != nil {
			return nil, err
		}
		lo, err := Bind(x.Lo, r)
		if err != nil {
			return nil, err
		}
		hi, err := Bind(x.Hi, r)
		if err != nil {
			return nil, err
		}
		return betweenNode{not: x.Not, v: v, lo: lo, hi: hi}, nil
	case sqlparser.IsNullExpr:
		v, err := Bind(x.Expr, r)
		if err != nil {
			return nil, err
		}
		return isNullNode{not: x.Not, v: v}, nil
	case sqlparser.FuncCall:
		return nil, fmt.Errorf("expr: aggregate %s not allowed in this context", x.Name)
	case nil:
		return nil, fmt.Errorf("expr: nil expression")
	default:
		return nil, fmt.Errorf("expr: unsupported expression %T", e)
	}
}

type litNode struct{ v sqltypes.Value }

func (n litNode) Eval(*Env) (sqltypes.Value, error) { return n.v, nil }

type paramNode struct{ idx int }

func (n paramNode) Eval(env *Env) (sqltypes.Value, error) {
	if n.idx >= len(env.Params) {
		return sqltypes.Value{}, fmt.Errorf("expr: parameter %d out of range", n.idx)
	}
	return env.Params[n.idx], nil
}

type colNode struct{ idx int }

func (n colNode) Eval(env *Env) (sqltypes.Value, error) {
	if n.idx >= len(env.Row) {
		return sqltypes.Value{}, fmt.Errorf("expr: column offset %d out of range (%d)", n.idx, len(env.Row))
	}
	return env.Row[n.idx], nil
}

type binOp uint8

const (
	opEq binOp = iota
	opNe
	opLt
	opLe
	opGt
	opGe
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opAnd
	opOr
	opLike
)

var binOps = map[string]binOp{
	"=": opEq, "<>": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe,
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	"AND": opAnd, "OR": opOr, "LIKE": opLike,
}

type binNode struct {
	op     binOp
	opName string
	l, r   Compiled
}

func (n binNode) Eval(env *Env) (sqltypes.Value, error) {
	// AND/OR need three-valued logic with short circuits.
	if n.op == opAnd || n.op == opOr {
		return n.evalLogic(env)
	}
	lv, err := n.l.Eval(env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	rv, err := n.r.Eval(env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	switch n.op {
	case opEq, opNe, opLt, opLe, opGt, opGe:
		if lv.IsNull() || rv.IsNull() {
			return sqltypes.NullValue(), nil
		}
		c := sqltypes.Compare(lv, rv)
		var out bool
		switch n.op {
		case opEq:
			out = c == 0
		case opNe:
			out = c != 0
		case opLt:
			out = c < 0
		case opLe:
			out = c <= 0
		case opGt:
			out = c > 0
		case opGe:
			out = c >= 0
		}
		return sqltypes.NewBool(out), nil
	case opAdd, opSub, opMul, opDiv, opMod:
		return arith(n.op, n.opName, lv, rv)
	case opLike:
		if lv.IsNull() || rv.IsNull() {
			return sqltypes.NullValue(), nil
		}
		return sqltypes.NewBool(likeMatch(lv.String(), rv.String())), nil
	}
	return sqltypes.Value{}, fmt.Errorf("expr: unhandled operator %s", n.opName)
}

func (n binNode) evalLogic(env *Env) (sqltypes.Value, error) {
	lv, err := n.l.Eval(env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	if n.op == opAnd {
		if !lv.IsNull() && !lv.Bool() {
			return sqltypes.NewBool(false), nil
		}
		rv, err := n.r.Eval(env)
		if err != nil {
			return sqltypes.Value{}, err
		}
		switch {
		case !rv.IsNull() && !rv.Bool():
			return sqltypes.NewBool(false), nil
		case lv.IsNull() || rv.IsNull():
			return sqltypes.NullValue(), nil
		default:
			return sqltypes.NewBool(true), nil
		}
	}
	// OR
	if !lv.IsNull() && lv.Bool() {
		return sqltypes.NewBool(true), nil
	}
	rv, err := n.r.Eval(env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	switch {
	case !rv.IsNull() && rv.Bool():
		return sqltypes.NewBool(true), nil
	case lv.IsNull() || rv.IsNull():
		return sqltypes.NullValue(), nil
	default:
		return sqltypes.NewBool(false), nil
	}
}

func arith(op binOp, opName string, a, b sqltypes.Value) (sqltypes.Value, error) {
	if a.IsNull() || b.IsNull() {
		return sqltypes.NullValue(), nil
	}
	if a.T == sqltypes.Text || b.T == sqltypes.Text {
		if op == opAdd && a.T == sqltypes.Text && b.T == sqltypes.Text {
			return sqltypes.NewText(a.S + b.S), nil // string concatenation
		}
		return sqltypes.Value{}, fmt.Errorf("expr: operator %s not defined on text", opName)
	}
	if a.T == sqltypes.Int && b.T == sqltypes.Int {
		switch op {
		case opAdd:
			return sqltypes.NewInt(a.I + b.I), nil
		case opSub:
			return sqltypes.NewInt(a.I - b.I), nil
		case opMul:
			return sqltypes.NewInt(a.I * b.I), nil
		case opDiv:
			if b.I == 0 {
				return sqltypes.Value{}, fmt.Errorf("expr: division by zero")
			}
			return sqltypes.NewInt(a.I / b.I), nil
		case opMod:
			if b.I == 0 {
				return sqltypes.Value{}, fmt.Errorf("expr: modulo by zero")
			}
			return sqltypes.NewInt(a.I % b.I), nil
		}
	}
	af, bf := a.AsFloat(), b.AsFloat()
	var f float64
	switch op {
	case opAdd:
		f = af + bf
	case opSub:
		f = af - bf
	case opMul:
		f = af * bf
	case opDiv:
		if bf == 0 {
			return sqltypes.Value{}, fmt.Errorf("expr: division by zero")
		}
		f = af / bf
	case opMod:
		return sqltypes.Value{}, fmt.Errorf("expr: modulo requires integers")
	default:
		return sqltypes.Value{}, fmt.Errorf("expr: unhandled arithmetic %s", opName)
	}
	// A NaN (Inf-Inf, 0*Inf, Inf/Inf) has no place in the value order,
	// so it is an error like division by zero.
	if math.IsNaN(f) {
		return sqltypes.Value{}, fmt.Errorf("expr: %s yields NaN", opName)
	}
	return sqltypes.NewFloat(f), nil
}

type notNode struct{ v Compiled }

func (n notNode) Eval(env *Env) (sqltypes.Value, error) {
	v, err := n.v.Eval(env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	if v.IsNull() {
		return sqltypes.NullValue(), nil
	}
	return sqltypes.NewBool(!v.Bool()), nil
}

type negNode struct{ v Compiled }

func (n negNode) Eval(env *Env) (sqltypes.Value, error) {
	v, err := n.v.Eval(env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	switch v.T {
	case sqltypes.Null:
		return v, nil
	case sqltypes.Int:
		return sqltypes.NewInt(-v.I), nil
	case sqltypes.Float:
		return sqltypes.NewFloat(-v.F), nil
	}
	return sqltypes.Value{}, fmt.Errorf("expr: cannot negate %s", v.T)
}

type inNode struct {
	not    bool
	needle Compiled
	list   []Compiled
}

func (n inNode) Eval(env *Env) (sqltypes.Value, error) {
	nv, err := n.needle.Eval(env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	if nv.IsNull() {
		return sqltypes.NullValue(), nil
	}
	sawNull := false
	for _, item := range n.list {
		iv, err := item.Eval(env)
		if err != nil {
			return sqltypes.Value{}, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		if sqltypes.Equal(nv, iv) {
			return sqltypes.NewBool(!n.not), nil
		}
	}
	if sawNull {
		return sqltypes.NullValue(), nil
	}
	return sqltypes.NewBool(n.not), nil
}

type betweenNode struct {
	not       bool
	v, lo, hi Compiled
}

func (n betweenNode) Eval(env *Env) (sqltypes.Value, error) {
	v, err := n.v.Eval(env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	lo, err := n.lo.Eval(env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	hi, err := n.hi.Eval(env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return sqltypes.NullValue(), nil
	}
	in := sqltypes.Compare(v, lo) >= 0 && sqltypes.Compare(v, hi) <= 0
	if n.not {
		in = !in
	}
	return sqltypes.NewBool(in), nil
}

type isNullNode struct {
	not bool
	v   Compiled
}

func (n isNullNode) Eval(env *Env) (sqltypes.Value, error) {
	v, err := n.v.Eval(env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	res := v.IsNull()
	if n.not {
		res = !res
	}
	return sqltypes.NewBool(res), nil
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single
// byte), matching case-sensitively as Ingres does.
func likeMatch(s, pattern string) bool {
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

// SimpleResolver resolves column names against a single flat schema
// with optional table qualifiers per column.
type SimpleResolver struct {
	Cols []ResolvedCol
}

// ResolvedCol is one column visible to a SimpleResolver.
type ResolvedCol struct {
	Table string // qualifier this column answers to (lower-case ok)
	Name  string
	Type  sqltypes.Type
}

// Resolve implements Resolver with case-insensitive matching and
// ambiguity detection.
func (r *SimpleResolver) Resolve(table, column string) (int, sqltypes.Type, error) {
	found := -1
	var typ sqltypes.Type
	for i, c := range r.Cols {
		if !strings.EqualFold(c.Name, column) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			return 0, 0, fmt.Errorf("expr: ambiguous column %q", column)
		}
		found = i
		typ = c.Type
	}
	if found < 0 {
		if table != "" {
			return 0, 0, fmt.Errorf("expr: unknown column %s.%s", table, column)
		}
		return 0, 0, fmt.Errorf("expr: unknown column %q", column)
	}
	return found, typ, nil
}
