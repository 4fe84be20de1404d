package optimizer

import (
	"repro/internal/sqlparser"
)

// pruneColumns narrows every leaf of the finished plan — SeqScan,
// IndexScan and IndexJoin's inner table — to the columns some
// expression of the plan reads: filters, join keys, residuals and loop
// conditions, group keys and aggregate arguments, and the projection
// (SELECT * is expanded there, so it keeps every column). Each leaf's
// Ords records the schema ordinals kept, nil when that is every column.
// Operators above the leaves bind by name through Out(), so they follow
// the narrower rows unchanged; Sort and Strip offsets sit above Project
// and are untouched.
func (p *planner) pruneColumns(root Node) {
	read := map[string]map[string]bool{} // by relation alias: the column names read
	note := func(es ...sqlparser.Expr) {
		for _, e := range es {
			sqlparser.WalkExprs(e, func(x sqlparser.Expr) {
				c, ok := x.(sqlparser.ColumnRef)
				if !ok {
					return
				}
				// References to the aggregate's "#" output resolve to
				// no table and are skipped.
				if r, name, _, err := p.resolveColumn(c); err == nil {
					if read[r.alias] == nil {
						read[r.alias] = map[string]bool{}
					}
					read[r.alias][name] = true
				}
			})
		}
	}
	// Pre-order: every expression that reads a leaf's columns sits on
	// the leaf or above it, so it is noted before the leaf is narrowed.
	var walk func(n Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *SeqScan:
			note(x.Filter)
			x.Cols, x.Ords = narrow(x.Cols, read[x.Alias])
		case *IndexScan:
			note(x.Filter)
			x.Cols, x.Ords = narrow(x.Cols, read[x.Alias])
		case *HashJoin:
			note(x.LeftKeys...)
			note(x.RightKeys...)
			note(x.Residual)
			walk(x.Left)
			walk(x.Right)
		case *LoopJoin:
			note(x.Cond)
			walk(x.Left)
			walk(x.Right)
		case *IndexJoin:
			note(x.LeftKeys...)
			note(x.Residual)
			x.Cols, x.Ords = narrow(x.Cols, read[x.Alias])
			walk(x.Left)
		case *Agg:
			note(x.GroupBy...)
			for _, a := range x.Aggs {
				note(a.Arg)
			}
			walk(x.Input)
		case *Project:
			note(x.Exprs...)
			walk(x.Input)
		case *Sort:
			walk(x.Input)
		case *Strip:
			walk(x.Input)
		case *Distinct:
			walk(x.Input)
		case *Limit:
			walk(x.Input)
		}
	}
	walk(root)
}

// narrow keeps the columns of a leaf's full schema-ordered list cols
// that names holds, and returns them with their ordinals; when that is
// all of them, it returns cols as they are and nil ordinals.
func narrow(cols []OutCol, names map[string]bool) ([]OutCol, []int) {
	if len(names) == len(cols) {
		return cols, nil
	}
	kept, ords := []OutCol{}, []int{}
	for i, c := range cols {
		if names[c.Name] {
			kept = append(kept, c)
			ords = append(ords, i)
		}
	}
	return kept, ords
}
