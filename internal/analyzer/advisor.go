package analyzer

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sqlparser"
)

// predUse records how a statement uses a column.
type predUse struct {
	table string
	col   string
	kind  string // "eq", "range", "join"
}

// candidate is one potential index.
type candidate struct {
	table  string
	cols   []string
	weight float64 // supporting executions
}

func (c candidate) key() string {
	return strings.ToLower(c.table) + "(" + strings.ToLower(strings.Join(c.cols, ",")) + ")"
}

// adviseIndexes generates index candidates from the workload, evaluates
// them with the optimizer's what-if mode (virtual indexes) and keeps a
// greedy set while total estimated workload cost keeps improving.
func (a *Analyzer) adviseIndexes(rep *Report) error {
	type stmtInfo struct {
		sc   *StmtCost
		stmt *sqlparser.SelectStmt
	}
	var stmts []stmtInfo
	cands := map[string]*candidate{}

	for i := range rep.Statements {
		sc := &rep.Statements[i]
		parsed, err := sqlparser.Parse(sc.Text)
		if err != nil {
			continue
		}
		sel, ok := parsed.(*sqlparser.SelectStmt)
		if !ok {
			continue
		}
		stmts = append(stmts, stmtInfo{sc: sc, stmt: sel})
		uses := a.extractUses(sel)
		weight := float64(sc.Executions)
		addCand := func(table string, cols ...string) {
			c := candidate{table: table, cols: cols, weight: weight}
			if a.coveredByRealIndex(table, cols) {
				return
			}
			if prev, ok := cands[c.key()]; ok {
				prev.weight += weight
			} else {
				cands[c.key()] = &c
			}
		}
		// Single-column candidates for every predicate column.
		perTable := map[string][]predUse{}
		for _, u := range uses {
			if u.kind == "other" {
				continue
			}
			addCand(u.table, u.col)
			perTable[u.table] = append(perTable[u.table], u)
		}
		// Two-column candidates: equality columns first.
		for table, us := range perTable {
			var eqs, ranges []string
			seen := map[string]bool{}
			for _, u := range us {
				if seen[u.kind+u.col] {
					continue
				}
				seen[u.kind+u.col] = true
				switch u.kind {
				case "eq", "join":
					eqs = append(eqs, u.col)
				case "range":
					ranges = append(ranges, u.col)
				}
			}
			sort.Strings(eqs)
			sort.Strings(ranges)
			for i := 0; i < len(eqs); i++ {
				for j := 0; j < len(eqs); j++ {
					if i != j {
						addCand(table, eqs[i], eqs[j])
					}
				}
				for _, rc := range ranges {
					if eqs[i] != rc {
						addCand(table, eqs[i], rc)
					}
				}
			}
		}
	}
	if len(stmts) == 0 || len(cands) == 0 {
		return nil
	}

	// Order candidates by support so evaluation is deterministic.
	ordered := make([]*candidate, 0, len(cands))
	for _, c := range cands {
		ordered = append(ordered, c)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].weight != ordered[j].weight {
			return ordered[i].weight > ordered[j].weight
		}
		return ordered[i].key() < ordered[j].key()
	})
	// Cap the evaluated pool: what-if planning costs one optimizer run
	// per (candidate, statement).
	const maxPool = 48
	if len(ordered) > maxPool {
		ordered = ordered[:maxPool]
	}

	sess := a.cfg.Source.NewSession()
	defer sess.Close()
	total := func(withVirtual bool) float64 {
		sum := 0.0
		for _, si := range stmts {
			plan, err := sess.Explain(si.sc.Text, withVirtual)
			if err != nil {
				continue
			}
			sum += plan.Est.Total() * float64(si.sc.Executions)
		}
		return sum
	}

	baseline := total(false)
	rep.BaselineEstCost = baseline
	current := total(true) // existing virtual indexes, if any
	if baseline < current {
		current = baseline
	}

	var tempNames []string
	defer func() {
		for _, n := range tempNames {
			sess.Exec("DROP INDEX IF EXISTS " + n)
		}
	}()

	var accepted []*candidate
	acceptedNames := make(map[string]string) // candidate key -> virtual index name
	for len(accepted) < maxIndexes {
		var best *candidate
		bestCost := current
		for _, c := range ordered {
			if _, done := acceptedNames[c.key()]; done {
				continue
			}
			tmp := fmt.Sprintf("vax_tmp_%d", len(tempNames))
			ddl := fmt.Sprintf("CREATE VIRTUAL INDEX %s ON %s (%s)", tmp, c.table, strings.Join(c.cols, ", "))
			if _, err := sess.Exec(ddl); err != nil {
				continue
			}
			cost := total(true)
			sess.Exec("DROP INDEX " + tmp)
			if cost < bestCost {
				bestCost = cost
				best = c
			}
		}
		if best == nil || (current-bestCost)/(current+1e-9) < minImprovement {
			break
		}
		name := fmt.Sprintf("vax_%d", len(accepted))
		ddl := fmt.Sprintf("CREATE VIRTUAL INDEX %s ON %s (%s)", name, best.table, strings.Join(best.cols, ", "))
		if _, err := sess.Exec(ddl); err != nil {
			break
		}
		tempNames = append(tempNames, name)
		acceptedNames[best.key()] = name
		accepted = append(accepted, best)
		current = bestCost
	}
	rep.WhatIfEstCost = current

	// Per-statement what-if estimates with the accepted virtual set in
	// place (for the Figure 6 cost diagram).
	for _, si := range stmts {
		if plan, err := sess.Explain(si.sc.Text, true); err == nil {
			si.sc.WhatIfCost = plan.Est.Total()
		}
	}

	for _, c := range accepted {
		name := fmt.Sprintf("ix_%s_%s", strings.ToLower(c.table), strings.ToLower(strings.Join(c.cols, "_")))
		rep.Recommendations = append(rep.Recommendations, Recommendation{
			Kind:    KindIndex,
			Table:   c.table,
			Columns: c.cols,
			SQL:     fmt.Sprintf("CREATE INDEX %s ON %s (%s)", name, c.table, strings.Join(c.cols, ", ")),
			Reason:  fmt.Sprintf("the optimizer chooses this index for the observed workload (supporting executions: %.0f)", c.weight),
			Score:   c.weight,
		})
	}
	return nil
}

// coveredByRealIndex reports whether an existing real index already has
// the candidate's columns as its leading prefix.
func (a *Analyzer) coveredByRealIndex(table string, cols []string) bool {
	for _, ix := range a.cfg.Source.Catalog().TableIndexes(table, false) {
		if len(ix.Columns) < len(cols) {
			continue
		}
		match := true
		for i, c := range cols {
			if !strings.EqualFold(ix.Columns[i], c) {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// extractUses walks a SELECT statement and records predicate columns
// per base table.
func (a *Analyzer) extractUses(st *sqlparser.SelectStmt) []predUse {
	cat := a.cfg.Source.Catalog()
	// alias (lower) -> table name
	aliases := map[string]string{}
	addRef := func(tr sqlparser.TableRef) {
		if cat.Table(tr.Name) != nil {
			aliases[strings.ToLower(tr.AliasOrName())] = strings.ToLower(tr.Name)
		}
	}
	for _, tr := range st.From {
		addRef(tr)
	}
	for _, j := range st.Joins {
		addRef(j.Table)
	}
	resolve := func(c sqlparser.ColumnRef) (string, string, bool) {
		if c.Table != "" {
			tbl, ok := aliases[strings.ToLower(c.Table)]
			if !ok {
				return "", "", false
			}
			meta := cat.Table(tbl)
			if meta == nil || meta.Schema.ColIndex(c.Name) < 0 {
				return "", "", false
			}
			return tbl, strings.ToLower(c.Name), true
		}
		found := ""
		for _, tbl := range aliases {
			if meta := cat.Table(tbl); meta != nil && meta.Schema.ColIndex(c.Name) >= 0 {
				if found != "" {
					return "", "", false // ambiguous
				}
				found = tbl
			}
		}
		if found == "" {
			return "", "", false
		}
		return found, strings.ToLower(c.Name), true
	}

	var conjuncts []sqlparser.Expr
	conjuncts = collectConjuncts(st.Where, conjuncts)
	for _, j := range st.Joins {
		conjuncts = collectConjuncts(j.Cond, conjuncts)
	}

	var uses []predUse
	isConst := func(e sqlparser.Expr) bool {
		ok := true
		sqlparser.WalkExprs(e, func(x sqlparser.Expr) {
			if _, isCol := x.(sqlparser.ColumnRef); isCol {
				ok = false
			}
		})
		return ok
	}
	for _, c := range conjuncts {
		switch x := c.(type) {
		case sqlparser.BinaryExpr:
			lc, lok := x.Left.(sqlparser.ColumnRef)
			rc, rok := x.Right.(sqlparser.ColumnRef)
			switch {
			case lok && rok && x.Op == "=":
				if lt, lcol, ok := resolve(lc); ok {
					if rt, rcol, ok2 := resolve(rc); ok2 && lt != rt {
						uses = append(uses,
							predUse{table: lt, col: lcol, kind: "join"},
							predUse{table: rt, col: rcol, kind: "join"})
					}
				}
			case lok && isConst(x.Right):
				if t, col, ok := resolve(lc); ok {
					uses = append(uses, predUse{table: t, col: col, kind: opKind(x.Op)})
				}
			case rok && isConst(x.Left):
				if t, col, ok := resolve(rc); ok {
					uses = append(uses, predUse{table: t, col: col, kind: opKind(x.Op)})
				}
			}
		case sqlparser.BetweenExpr:
			if lc, ok := x.Expr.(sqlparser.ColumnRef); ok && !x.Not {
				if t, col, ok := resolve(lc); ok {
					uses = append(uses, predUse{table: t, col: col, kind: "range"})
				}
			}
		case sqlparser.InExpr:
			if lc, ok := x.Expr.(sqlparser.ColumnRef); ok && !x.Not {
				if t, col, ok := resolve(lc); ok {
					uses = append(uses, predUse{table: t, col: col, kind: "eq"})
				}
			}
		}
	}
	return uses
}

func opKind(op string) string {
	switch op {
	case "=":
		return "eq"
	case "<", "<=", ">", ">=":
		return "range"
	}
	return "other"
}

func collectConjuncts(e sqlparser.Expr, out []sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return out
	}
	if b, ok := e.(sqlparser.BinaryExpr); ok && b.Op == "AND" {
		out = collectConjuncts(b.Left, out)
		return collectConjuncts(b.Right, out)
	}
	return append(out, e)
}
