package expr

import (
	"fmt"

	"repro/internal/sqltypes"
)

// EvalBatch evaluates one compiled expression over every row of a
// batch, appending the results (one value per row, in row order) to
// dst and returning the extended slice. env supplies the parameters;
// its Row field is clobbered during the call and restored before
// returning. Column references and literals take allocation-free fast
// paths; everything else falls back to per-row Eval, so EvalBatch is
// exactly equivalent to evaluating row-at-a-time.
func EvalBatch(c Compiled, env *Env, rows []sqltypes.Row, dst []sqltypes.Value) ([]sqltypes.Value, error) {
	switch n := c.(type) {
	case colNode:
		for _, r := range rows {
			if n.idx >= len(r) {
				return dst, fmt.Errorf("expr: column offset %d out of range (%d)", n.idx, len(r))
			}
			dst = append(dst, r[n.idx])
		}
		return dst, nil
	case litNode:
		for range rows {
			dst = append(dst, n.v)
		}
		return dst, nil
	case binNode:
		if out, ok, err := evalCmpBatch(n, env, rows, dst); ok {
			return out, err
		}
	}
	return evalBatchSlow(c, env, rows, dst)
}

func evalBatchSlow(c Compiled, env *Env, rows []sqltypes.Row, dst []sqltypes.Value) ([]sqltypes.Value, error) {
	saved := env.Row
	defer func() { env.Row = saved }()
	for _, r := range rows {
		env.Row = r
		v, err := c.Eval(env)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// ColumnOf reports the row position a bare column reference reads;
// ok=false for any other expression. A join reads such a key straight
// from the row.
func ColumnOf(c Compiled) (col int, ok bool) {
	x, ok := c.(colNode)
	return x.idx, ok
}

// leafOperand resolves an expression that is constant per batch (a
// column reference, literal or bound parameter) into either a column
// index (col >= 0) or a value. ok=false for any other shape.
func leafOperand(c Compiled, env *Env) (col int, v sqltypes.Value, ok bool) {
	switch x := c.(type) {
	case colNode:
		return x.idx, sqltypes.Value{}, true
	case litNode:
		return -1, x.v, true
	case paramNode:
		if x.idx >= len(env.Params) {
			return 0, sqltypes.Value{}, false
		}
		return -1, env.Params[x.idx], true
	}
	return 0, sqltypes.Value{}, false
}

// evalCmpBatch vectorizes comparisons whose operands are column
// references, literals or parameters — the common pushed-down filter
// shape — avoiding the per-row double expression dispatch. ok=false
// means the expression is not of that shape and the caller falls back
// to per-row Eval. Semantics match binNode.Eval exactly: NULL operands
// compare to NULL, everything else through sqltypes.Compare ordering.
func evalCmpBatch(n binNode, env *Env, rows []sqltypes.Row, dst []sqltypes.Value) ([]sqltypes.Value, bool, error) {
	switch n.op {
	case opEq, opNe, opLt, opLe, opGt, opGe:
	default:
		return dst, false, nil
	}
	lcol, lval, lok := leafOperand(n.l, env)
	rcol, rval, rok := leafOperand(n.r, env)
	if !lok || !rok {
		return dst, false, nil
	}
	for _, row := range rows {
		lv := lval
		if lcol >= 0 {
			if lcol >= len(row) {
				return dst, true, fmt.Errorf("expr: column offset %d out of range (%d)", lcol, len(row))
			}
			lv = row[lcol]
		}
		rv := rval
		if rcol >= 0 {
			if rcol >= len(row) {
				return dst, true, fmt.Errorf("expr: column offset %d out of range (%d)", rcol, len(row))
			}
			rv = row[rcol]
		}
		if lv.IsNull() || rv.IsNull() {
			dst = append(dst, sqltypes.NullValue())
			continue
		}
		var c int
		if lv.T == sqltypes.Int && rv.T == sqltypes.Int {
			switch {
			case lv.I < rv.I:
				c = -1
			case lv.I > rv.I:
				c = 1
			}
		} else {
			c = sqltypes.Compare(lv, rv)
		}
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
		dst = append(dst, sqltypes.NewBool(out))
	}
	return dst, true, nil
}
