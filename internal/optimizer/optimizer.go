package optimizer

import (
	"fmt"
	"math"
	"reflect"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// Options controls a planning run.
type Options struct {
	// WithVirtualIndexes admits catalog-only virtual indexes as access
	// paths — the what-if mode used by the analyzer. Plans produced
	// this way must not be executed.
	WithVirtualIndexes bool
	// Params supplies values for Param nodes so selectivity can be
	// estimated from the actual constants.
	Params []sqltypes.Value
}

// PlanSelect builds a physical plan for a SELECT statement.
func PlanSelect(st *sqlparser.SelectStmt, cat CatalogView, opt Options) (*Plan, error) {
	p := &planner{cat: cat, opt: opt, st: st}
	return p.plan()
}

type rel struct {
	idx   int
	name  string // table name as in the catalog
	alias string // lower-case alias (or name)
	meta  *catalog.Table
	stats TableStats

	preds  []sqlparser.Expr // single-table conjuncts
	sel    float64          // combined selectivity of preds
	access Node             // chosen access path
}

type joinPred struct {
	a, b         int
	aCol, bCol   sqlparser.ColumnRef // qualified with the rel alias
	raw          sqlparser.Expr
	aName, bName string // column names
}

type planner struct {
	cat  CatalogView
	opt  Options
	st   *sqlparser.SelectStmt
	rels []*rel

	joinPreds []joinPred
	residuals []residual

	usedIndexes []string
	attributes  map[string]bool

	agg       *Agg
	aggCalls  []sqlparser.FuncCall
	origItems []sqlparser.SelectItem
	project   *Project
}

type residual struct {
	rels map[int]bool
	e    sqlparser.Expr
	done bool
}

func (p *planner) plan() (*Plan, error) {
	p.attributes = map[string]bool{}
	if err := p.buildRels(); err != nil {
		return nil, err
	}
	if err := p.classifyPredicates(); err != nil {
		return nil, err
	}
	for _, r := range p.rels {
		p.chooseAccessPath(r)
	}
	root, err := p.joinOrder()
	if err != nil {
		return nil, err
	}
	root, err = p.applyAggregation(root)
	if err != nil {
		return nil, err
	}
	root, err = p.applyProjection(root)
	if err != nil {
		return nil, err
	}
	if p.st.Distinct {
		root = &Distinct{Input: root, EstC: distinctCost(root.Est())}
	}
	root, err = p.applyOrderBy(root)
	if err != nil {
		return nil, err
	}
	if p.st.Limit >= 0 || p.st.Offset > 0 {
		root = &Limit{Input: root, N: p.st.Limit, Offset: p.st.Offset, EstC: limitCost(root.Est(), p.st.Limit)}
	}
	p.pruneColumns(root)
	plan := &Plan{Root: root, Est: root.Est(), UsedIndexes: p.usedIndexes}
	for a := range p.attributes {
		plan.Attributes = append(plan.Attributes, a)
	}
	return plan, nil
}

func (p *planner) buildRels() error {
	refs := append([]sqlparser.TableRef{}, p.st.From...)
	for _, j := range p.st.Joins {
		refs = append(refs, j.Table)
	}
	seen := map[string]bool{}
	for i, tr := range refs {
		meta := p.cat.Table(tr.Name)
		if meta == nil {
			return fmt.Errorf("optimizer: unknown table %q", tr.Name)
		}
		alias := strings.ToLower(tr.AliasOrName())
		if seen[alias] {
			return fmt.Errorf("optimizer: duplicate table alias %q", alias)
		}
		seen[alias] = true
		stats, ok := p.cat.TableStats(tr.Name)
		if !ok {
			stats = TableStats{Rows: meta.Rows, Pages: meta.MainPages}
		}
		if stats.Rows <= 0 {
			stats.Rows = 1
		}
		if stats.Pages == 0 {
			stats.Pages = 1
		}
		p.rels = append(p.rels, &rel{
			idx: i, name: meta.Name, alias: alias, meta: meta, stats: stats, sel: 1,
		})
	}
	return nil
}

// resolveColumn finds the rel and canonical column name for a
// reference.
func (p *planner) resolveColumn(c sqlparser.ColumnRef) (*rel, string, sqltypes.Type, error) {
	var found *rel
	var name string
	var typ sqltypes.Type
	for _, r := range p.rels {
		if c.Table != "" && !strings.EqualFold(c.Table, r.alias) {
			continue
		}
		idx := r.meta.Schema.ColIndex(c.Name)
		if idx < 0 {
			continue
		}
		if found != nil {
			return nil, "", 0, fmt.Errorf("optimizer: ambiguous column %q", c.Name)
		}
		found = r
		name = r.meta.Schema.Columns[idx].Name
		typ = r.meta.Schema.Columns[idx].Type
	}
	if found == nil {
		if c.Table != "" {
			return nil, "", 0, fmt.Errorf("optimizer: unknown column %s.%s", c.Table, c.Name)
		}
		return nil, "", 0, fmt.Errorf("optimizer: unknown column %q", c.Name)
	}
	return found, name, typ, nil
}

// exprRels returns the set of rel indices an expression references and
// records the attributes it touches.
func (p *planner) exprRels(e sqlparser.Expr) (map[int]bool, error) {
	out := map[int]bool{}
	var err error
	sqlparser.WalkExprs(e, func(x sqlparser.Expr) {
		if err != nil {
			return
		}
		if c, ok := x.(sqlparser.ColumnRef); ok {
			r, name, _, rerr := p.resolveColumn(c)
			if rerr != nil {
				err = rerr
				return
			}
			out[r.idx] = true
			p.attributes[strings.ToLower(r.name)+"."+strings.ToLower(name)] = true
		}
	})
	return out, err
}

func splitConjuncts(e sqlparser.Expr, out []sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return out
	}
	if b, ok := e.(sqlparser.BinaryExpr); ok && b.Op == "AND" {
		out = splitConjuncts(b.Left, out)
		return splitConjuncts(b.Right, out)
	}
	return append(out, e)
}

func (p *planner) classifyPredicates() error {
	var conjuncts []sqlparser.Expr
	conjuncts = splitConjuncts(p.st.Where, conjuncts)
	for _, j := range p.st.Joins {
		conjuncts = splitConjuncts(j.Cond, conjuncts)
	}
	for _, c := range conjuncts {
		rels, err := p.exprRels(c)
		if err != nil {
			return err
		}
		switch len(rels) {
		case 0:
			// Constant predicate: attach to the first rel as a filter.
			if len(p.rels) > 0 {
				p.rels[0].preds = append(p.rels[0].preds, c)
			}
		case 1:
			for idx := range rels {
				p.rels[idx].preds = append(p.rels[idx].preds, c)
			}
		case 2:
			if jp, ok := p.asEquiJoin(c, rels); ok {
				p.joinPreds = append(p.joinPreds, jp)
				continue
			}
			p.residuals = append(p.residuals, residual{rels: rels, e: c})
		default:
			p.residuals = append(p.residuals, residual{rels: rels, e: c})
		}
	}
	return nil
}

// asEquiJoin recognizes "a.x = b.y" between two different rels.
func (p *planner) asEquiJoin(e sqlparser.Expr, rels map[int]bool) (joinPred, bool) {
	b, ok := e.(sqlparser.BinaryExpr)
	if !ok || b.Op != "=" {
		return joinPred{}, false
	}
	lc, lok := b.Left.(sqlparser.ColumnRef)
	rc, rok := b.Right.(sqlparser.ColumnRef)
	if !lok || !rok {
		return joinPred{}, false
	}
	lr, lname, _, err1 := p.resolveColumn(lc)
	rr, rname, _, err2 := p.resolveColumn(rc)
	if err1 != nil || err2 != nil || lr.idx == rr.idx {
		return joinPred{}, false
	}
	return joinPred{
		a: lr.idx, b: rr.idx,
		aCol:  sqlparser.ColumnRef{Table: lr.alias, Name: lname},
		bCol:  sqlparser.ColumnRef{Table: rr.alias, Name: rname},
		aName: lname, bName: rname,
		raw: e,
	}, true
}

// sarg is a sargable single-table predicate usable for index probes and
// selectivity estimation.
type sarg struct {
	col  string // canonical column name
	op   string // "=", "<", "<=", ">", ">=", "between", "like", "in"
	val  sqlparser.Expr
	val2 sqlparser.Expr // BETWEEN upper bound
	n    int            // IN list length
}

// extractSargs pulls sargable predicates for rel r out of its
// conjuncts.
func (p *planner) extractSargs(r *rel) []sarg {
	var out []sarg
	for _, c := range r.preds {
		switch x := c.(type) {
		case sqlparser.BinaryExpr:
			if x.Op == "AND" || x.Op == "OR" {
				continue
			}
			lc, lok := x.Left.(sqlparser.ColumnRef)
			rc, rok := x.Right.(sqlparser.ColumnRef)
			switch {
			case lok && !rok && p.isConst(x.Right):
				if name, ok := p.colOf(r, lc); ok {
					out = append(out, sarg{col: name, op: x.Op, val: x.Right})
				}
			case rok && !lok && p.isConst(x.Left):
				if name, ok := p.colOf(r, rc); ok {
					out = append(out, sarg{col: name, op: flipOp(x.Op), val: x.Left})
				}
			}
		case sqlparser.BetweenExpr:
			if x.Not {
				continue
			}
			if lc, ok := x.Expr.(sqlparser.ColumnRef); ok && p.isConst(x.Lo) && p.isConst(x.Hi) {
				if name, ok := p.colOf(r, lc); ok {
					out = append(out, sarg{col: name, op: "between", val: x.Lo, val2: x.Hi})
				}
			}
		case sqlparser.InExpr:
			if x.Not {
				continue
			}
			lc, ok := x.Expr.(sqlparser.ColumnRef)
			if !ok {
				continue
			}
			constList := true
			for _, it := range x.List {
				if !p.isConst(it) {
					constList = false
					break
				}
			}
			if constList {
				if name, ok := p.colOf(r, lc); ok {
					out = append(out, sarg{col: name, op: "in", n: len(x.List)})
				}
			}
		}
	}
	return out
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// colOf resolves a column reference against a specific rel.
func (p *planner) colOf(r *rel, c sqlparser.ColumnRef) (string, bool) {
	if c.Table != "" && !strings.EqualFold(c.Table, r.alias) {
		return "", false
	}
	idx := r.meta.Schema.ColIndex(c.Name)
	if idx < 0 {
		return "", false
	}
	return r.meta.Schema.Columns[idx].Name, true
}

// isConst reports whether an expression contains no column references.
func (p *planner) isConst(e sqlparser.Expr) bool {
	isConst := true
	sqlparser.WalkExprs(e, func(x sqlparser.Expr) {
		if _, ok := x.(sqlparser.ColumnRef); ok {
			isConst = false
		}
	})
	return isConst
}

// constValue evaluates a constant expression with the bound params.
func (p *planner) constValue(e sqlparser.Expr) (sqltypes.Value, bool) {
	c, err := expr.Bind(e, emptyResolver{})
	if err != nil {
		return sqltypes.Value{}, false
	}
	v, err := c.Eval(&expr.Env{Params: p.opt.Params})
	if err != nil {
		return sqltypes.Value{}, false
	}
	return v, true
}

type emptyResolver struct{}

func (emptyResolver) Resolve(table, column string) (int, sqltypes.Type, error) {
	return 0, 0, fmt.Errorf("optimizer: column %s.%s in constant context", table, column)
}

// sargSelectivity estimates one sarg's selectivity.
func (p *planner) sargSelectivity(r *rel, s sarg) float64 {
	h := p.cat.Histogram(r.name, s.col)
	rows := float64(r.stats.Rows)
	switch s.op {
	case "=":
		if v, ok := p.constValue(s.val); ok && h != nil {
			return clampSel(h.SelectivityEq(v), rows)
		}
		if p.isUniqueKey(r, s.col) {
			return clampSel(1/rows, rows)
		}
		return defaultEqSelectivity
	case "<", "<=":
		if v, ok := p.constValue(s.val); ok && h != nil {
			return clampSel(h.SelectivityRange(sqltypes.Value{}, false, v, true), rows)
		}
		return defaultRangeSelectivity
	case ">", ">=":
		if v, ok := p.constValue(s.val); ok && h != nil {
			return clampSel(h.SelectivityRange(v, true, sqltypes.Value{}, false), rows)
		}
		return defaultRangeSelectivity
	case "between":
		lo, ok1 := p.constValue(s.val)
		hi, ok2 := p.constValue(s.val2)
		if ok1 && ok2 && h != nil {
			return clampSel(h.SelectivityRange(lo, true, hi, true), rows)
		}
		return defaultRangeSelectivity
	case "like":
		return defaultLikeSelectivity
	case "in":
		per := defaultEqSelectivity
		if p.isUniqueKey(r, s.col) {
			per = 1 / rows
		}
		return clampSel(per*float64(s.n), rows)
	}
	return 1
}

func clampSel(sel, rows float64) float64 {
	lo := 1 / math.Max(rows, 1)
	if sel < lo {
		return lo
	}
	if sel > 1 {
		return 1
	}
	return sel
}

// isUniqueKey reports whether col alone is the table's primary key or
// has a single-column unique index.
func (p *planner) isUniqueKey(r *rel, col string) bool {
	if len(r.meta.PrimaryKey) == 1 && strings.EqualFold(r.meta.PrimaryKey[0], col) {
		return true
	}
	for _, ix := range p.cat.TableIndexes(r.name, false) {
		if ix.Unique && len(ix.Columns) == 1 && strings.EqualFold(ix.Columns[0], col) {
			return true
		}
	}
	return false
}

// chooseAccessPath picks the cheapest access path for a rel and stores
// it in r.access.
func (p *planner) chooseAccessPath(r *rel) {
	sargs := p.extractSargs(r)
	// Count LIKE predicates for selectivity (not sargable for probes).
	for _, c := range r.preds {
		if b, ok := c.(sqlparser.BinaryExpr); ok && b.Op == "LIKE" {
			sargs = append(sargs, sarg{op: "like"})
		}
	}
	sel := 1.0
	for _, s := range sargs {
		sel *= p.sargSelectivity(r, s)
	}
	sel = clampSel(sel, float64(r.stats.Rows))
	if len(r.preds) == 0 {
		sel = 1
	}
	r.sel = sel

	filter := andAll(r.preds)
	cols := outColsFor(r)
	totalRows := math.Max(1, float64(r.stats.Rows)*sel)

	best := Node(&SeqScan{
		Table: r.name, Alias: r.alias, Cols: cols, Filter: filter,
		EstC: func() Cost {
			c := seqScanCost(r.stats, sel)
			c.Rows = totalRows
			return c
		}(),
	})
	bestName := ""

	consider := func(keyCols []string, ixName string, primary bool, ixStats IndexStats) {
		eq, lo, hi, loIncl, hiIncl, matchSel := p.matchKey(r, sargs, keyCols)
		if len(eq) == 0 && lo == nil && hi == nil {
			return
		}
		matchRows := math.Max(1, float64(r.stats.Rows)*matchSel)
		c := indexScanCost(r.stats, ixStats, matchRows)
		c.Rows = totalRows
		if c.Total() < best.Est().Total() {
			best = &IndexScan{
				Table: r.name, Alias: r.alias, Index: ixName, Primary: primary,
				Cols: cols, Eq: eq, Lo: lo, Hi: hi, LoIncl: loIncl, HiIncl: hiIncl,
				Filter: filter, EstC: c,
			}
			if primary {
				bestName = strings.ToLower(r.name) + ".primary"
			} else {
				bestName = ixName
			}
		}
	}

	if kc := storageKeyOf(r.meta); r.meta.Structure == catalog.BTree && len(kc) > 0 {
		consider(kc, "", true, IndexStats{Height: r.stats.BTreeHeight})
	}
	for _, ix := range p.cat.TableIndexes(r.name, p.opt.WithVirtualIndexes) {
		st, ok := p.cat.IndexStats(ix.Name)
		if !ok {
			st = estimateIndexStats(r.stats)
		}
		consider(ix.Columns, ix.Name, false, st)
	}

	if bestName != "" {
		p.usedIndexes = append(p.usedIndexes, bestName)
	}
	r.access = best
}

// matchKey matches sargs against an index key column list: the longest
// equality prefix plus an optional range on the next column. It
// returns the probe expressions and the combined selectivity of the
// matched sargs.
func (p *planner) matchKey(r *rel, sargs []sarg, keyCols []string) (eq []sqlparser.Expr, lo, hi sqlparser.Expr, loIncl, hiIncl bool, matchSel float64) {
	matchSel = 1.0
	for _, kc := range keyCols {
		var eqSarg *sarg
		for i := range sargs {
			if sargs[i].op == "=" && strings.EqualFold(sargs[i].col, kc) {
				eqSarg = &sargs[i]
				break
			}
		}
		if eqSarg == nil {
			// Range on this column ends the prefix.
			for i := range sargs {
				s := &sargs[i]
				if !strings.EqualFold(s.col, kc) {
					continue
				}
				switch s.op {
				case "<":
					hi, hiIncl = s.val, false
				case "<=":
					hi, hiIncl = s.val, true
				case ">":
					lo, loIncl = s.val, false
				case ">=":
					lo, loIncl = s.val, true
				case "between":
					lo, loIncl = s.val, true
					hi, hiIncl = s.val2, true
				default:
					continue
				}
				matchSel *= p.sargSelectivity(r, *s)
			}
			break
		}
		eq = append(eq, eqSarg.val)
		matchSel *= p.sargSelectivity(r, *eqSarg)
	}
	return eq, lo, hi, loIncl, hiIncl, matchSel
}

func andAll(preds []sqlparser.Expr) sqlparser.Expr {
	var out sqlparser.Expr
	for _, e := range preds {
		if out == nil {
			out = e
			continue
		}
		out = sqlparser.BinaryExpr{Op: "AND", Left: out, Right: e}
	}
	return out
}

func outColsFor(r *rel) []OutCol {
	cols := make([]OutCol, r.meta.Schema.Len())
	for i, c := range r.meta.Schema.Columns {
		cols[i] = OutCol{Table: r.alias, Name: c.Name, Type: c.Type}
	}
	return cols
}

// joinDistinct estimates the distinct count of a join column.
func (p *planner) joinDistinct(r *rel, col string) float64 {
	if h := p.cat.Histogram(r.name, col); h != nil && h.Distinct > 0 {
		return float64(h.Distinct)
	}
	if p.isUniqueKey(r, col) {
		return float64(r.stats.Rows)
	}
	return math.Max(10, float64(r.stats.Rows)*defaultJoinDistinctFraction)
}

// joinOrder builds a left-deep join tree greedily.
func (p *planner) joinOrder() (Node, error) {
	if len(p.rels) == 0 {
		return nil, fmt.Errorf("optimizer: no tables")
	}
	remaining := map[int]*rel{}
	for _, r := range p.rels {
		remaining[r.idx] = r
	}

	// Start with the relation with the fewest estimated output rows.
	var cur *rel
	for _, r := range remaining {
		if cur == nil || r.access.Est().Rows < cur.access.Est().Rows ||
			(r.access.Est().Rows == cur.access.Est().Rows && r.idx < cur.idx) {
			cur = r
		}
	}
	tree := cur.access
	inTree := map[int]bool{cur.idx: true}
	delete(remaining, cur.idx)

	for len(remaining) > 0 {
		type candidate struct {
			r     *rel
			node  Node
			preds []joinPred
		}
		var best *candidate
		for _, r := range remaining {
			preds := p.connecting(inTree, r.idx)
			node := p.buildJoin(tree, r, preds)
			if best == nil || node.Est().Total() < best.node.Est().Total() {
				best = &candidate{r: r, node: node, preds: preds}
			}
		}
		tree = best.node
		inTree[best.r.idx] = true
		delete(remaining, best.r.idx)
		tree = p.attachResiduals(tree, inTree)
	}
	return tree, nil
}

// connecting returns join predicates linking the tree to rel idx.
func (p *planner) connecting(inTree map[int]bool, idx int) []joinPred {
	var out []joinPred
	for _, jp := range p.joinPreds {
		if inTree[jp.a] && jp.b == idx {
			out = append(out, jp)
		} else if inTree[jp.b] && jp.a == idx {
			// Normalize: a-side in tree.
			out = append(out, joinPred{
				a: jp.b, b: jp.a, aCol: jp.bCol, bCol: jp.aCol,
				aName: jp.bName, bName: jp.aName, raw: jp.raw,
			})
		}
	}
	return out
}

// buildJoin picks the cheapest join method to combine tree with rel r.
func (p *planner) buildJoin(tree Node, r *rel, preds []joinPred) Node {
	treeCost := tree.Est()
	rCost := r.access.Est()

	if len(preds) == 0 {
		out := treeCost.Rows * rCost.Rows
		return &LoopJoin{Left: tree, Right: r.access, Cond: nil,
			EstC: loopJoinCost(treeCost, rCost, out)}
	}

	// Cardinality: apply each equi predicate's 1/max(distinct).
	outRows := treeCost.Rows * rCost.Rows
	for _, jp := range preds {
		d := p.joinDistinct(r, jp.bName)
		// The tree side's distinct is unknown after joins; use the
		// base rel's if the column came straight from one.
		if ar := p.relByIdx(jp.a); ar != nil {
			d = math.Max(d, p.joinDistinct(ar, jp.aName))
		}
		outRows /= math.Max(1, d)
	}
	outRows = math.Max(1, outRows)

	leftKeys := make([]sqlparser.Expr, len(preds))
	rightKeys := make([]sqlparser.Expr, len(preds))
	for i, jp := range preds {
		leftKeys[i] = jp.aCol
		rightKeys[i] = jp.bCol
	}
	// Build on the input with fewer estimated rows; a tie builds on r.
	probe, build := treeCost, rCost
	buildLeft := treeCost.Rows < rCost.Rows
	if buildLeft {
		probe, build = rCost, treeCost
	}
	var best Node = &HashJoin{
		Left: tree, Right: r.access, LeftKeys: leftKeys, RightKeys: rightKeys,
		BuildLeft: buildLeft, EstC: hashJoinCost(probe, build, outRows),
	}

	// Index nested loops: an index on r whose prefix is covered by the
	// join columns.
	rCols := map[string]sqlparser.Expr{}
	for _, jp := range preds {
		rCols[strings.ToLower(jp.bName)] = jp.aCol
	}
	residualFilter := andAll(r.preds)
	perProbeBase := float64(r.stats.Rows)

	tryIndexJoin := func(keyCols []string, ixName string, primary bool, ixStats IndexStats) {
		var probe []sqlparser.Expr
		d := 1.0
		for _, kc := range keyCols {
			e, ok := rCols[strings.ToLower(kc)]
			if !ok {
				break
			}
			probe = append(probe, e)
			d *= p.joinDistinct(r, kc)
		}
		if len(probe) == 0 {
			return
		}
		perProbe := perProbeBase / math.Max(1, d)
		cost := indexJoinCost(treeCost, r.stats, ixStats, perProbe, outRows*r.sel)
		if cost.Total() < best.Est().Total() {
			best = &IndexJoin{
				Left: tree, Table: r.name, Alias: r.alias,
				Index: ixName, Primary: primary, Cols: outColsFor(r),
				LeftKeys: probe, Residual: residualFilter,
				EstC: cost,
			}
		}
	}

	if kc := storageKeyOf(r.meta); r.meta.Structure == catalog.BTree && len(kc) > 0 {
		tryIndexJoin(kc, "", true, IndexStats{Height: r.stats.BTreeHeight})
	}
	for _, ix := range p.cat.TableIndexes(r.name, p.opt.WithVirtualIndexes) {
		st, ok := p.cat.IndexStats(ix.Name)
		if !ok {
			st = estimateIndexStats(r.stats)
		}
		tryIndexJoin(ix.Columns, ix.Name, false, st)
	}

	if ij, ok := best.(*IndexJoin); ok {
		if ij.Primary {
			p.usedIndexes = append(p.usedIndexes, strings.ToLower(ij.Table)+".primary")
		} else {
			p.usedIndexes = append(p.usedIndexes, ij.Index)
		}
		// Remaining equi predicates not used for the probe become part
		// of the residual.
		var extras []sqlparser.Expr
		for _, jp := range preds {
			used := false
			for _, pk := range ij.LeftKeys {
				if reflect.DeepEqual(pk, jp.aCol) {
					used = true
					break
				}
			}
			if !used {
				extras = append(extras, jp.raw)
			}
		}
		if len(extras) > 0 {
			ij.Residual = andAll(append([]sqlparser.Expr{ij.Residual}, extras...))
			if ij.Residual == nil {
				ij.Residual = andAll(extras)
			}
		}
	}
	return best
}

func (p *planner) relByIdx(idx int) *rel {
	for _, r := range p.rels {
		if r.idx == idx {
			return r
		}
	}
	return nil
}

// attachResiduals ANDs any multi-table residual whose rels are all in
// the tree onto the top join node.
func (p *planner) attachResiduals(tree Node, inTree map[int]bool) Node {
	var ready []sqlparser.Expr
	for i := range p.residuals {
		res := &p.residuals[i]
		if res.done {
			continue
		}
		ok := true
		for idx := range res.rels {
			if !inTree[idx] {
				ok = false
				break
			}
		}
		if ok {
			ready = append(ready, res.e)
			res.done = true
		}
	}
	if len(ready) == 0 {
		return tree
	}
	cond := andAll(ready)
	switch j := tree.(type) {
	case *HashJoin:
		j.Residual = andTwo(j.Residual, cond)
		return j
	case *LoopJoin:
		j.Cond = andTwo(j.Cond, cond)
		return j
	case *IndexJoin:
		j.Residual = andTwo(j.Residual, cond)
		return j
	default:
		// Single-table statements never produce multi-rel residuals.
		return tree
	}
}

func andTwo(a, b sqlparser.Expr) sqlparser.Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return sqlparser.BinaryExpr{Op: "AND", Left: a, Right: b}
}

// storageKeyOf returns the BTREE storage structure's key columns: the
// explicit storage key if set, else the primary key.
func storageKeyOf(meta *catalog.Table) []string {
	if len(meta.StorageKey) > 0 {
		return meta.StorageKey
	}
	return meta.PrimaryKey
}
