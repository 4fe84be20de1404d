package executor

import (
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// hashJoinC builds on one input and probes with the other; either way
// its rows are the left input's columns then the right's.
type hashJoinC struct {
	probe, build         compiled
	probeKeys, buildKeys []expr.Compiled // bound against their side's output
	probeCols, buildCols []int           // the keys' row positions when every key is a bare column; else nil
	buildLeft            bool            // the build side is the left input
	joinFilter           bool            // the probe leaf's sieve tests rows against the build keys
	residual             expr.Compiled   // bound against combined output
	buildRows            float64         // the build side's estimated rows
}

func (cp *compiler) compileHashJoin(n *optimizer.HashJoin, depth int) (compiled, error) {
	cp.sieved = n.JoinFilter()
	left, err := cp.compile(n.Left, depth+1)
	if err != nil {
		return nil, err
	}
	cp.sieved = n.JoinFilter() // the left input's joins set their own
	right, err := cp.compile(n.Right, depth+1)
	if err != nil {
		return nil, err
	}
	leftKeys, err := bindKeys(n.LeftKeys, n.Left)
	if err != nil {
		return nil, err
	}
	rightKeys, err := bindKeys(n.RightKeys, n.Right)
	if err != nil {
		return nil, err
	}
	c := &hashJoinC{probe: left, build: right, probeKeys: leftKeys, buildKeys: rightKeys,
		buildLeft: n.BuildLeft, joinFilter: n.JoinFilter() != nil, buildRows: n.Right.Est().Rows}
	if n.BuildLeft {
		c.probe, c.build = right, left
		c.probeKeys, c.buildKeys = rightKeys, leftKeys
		c.buildRows = n.Left.Est().Rows
	}
	c.probeCols, c.buildCols = keyCols(c.probeKeys), keyCols(c.buildKeys)
	if c.residual, err = bindOpt(n.Residual, resolverFor(n.Out())); err != nil {
		return nil, err
	}
	return c, nil
}

// bindKeys binds join key expressions against the output of in.
func bindKeys(keys []sqlparser.Expr, in optimizer.Node) ([]expr.Compiled, error) {
	res := resolverFor(in.Out())
	out := make([]expr.Compiled, len(keys))
	for i, e := range keys {
		ce, err := expr.Bind(e, res)
		if err != nil {
			return nil, err
		}
		out[i] = ce
	}
	return out, nil
}

// keyCols returns the row positions of keys when every one is a bare
// column, else nil.
func keyCols(keys []expr.Compiled) []int {
	cols := make([]int, len(keys))
	for i, k := range keys {
		var ok bool
		if cols[i], ok = expr.ColumnOf(k); !ok {
			return nil
		}
	}
	return cols
}

// evalKey evaluates the key expressions, or reads them straight from
// the row when they are the bare columns cols, into the scratch *dst
// (see keyOf); ok=false if any value is NULL (SQL equi joins never
// match on NULL).
func evalKey(dst *[]sqltypes.Value, env *expr.Env, keys []expr.Compiled, cols []int) ([]sqltypes.Value, bool, error) {
	if cols != nil {
		key, ok := keyOf(dst, env.Row, cols)
		return key, ok, nil
	}
	*dst = (*dst)[:0]
	for _, k := range keys {
		v, err := k.Eval(env)
		if err != nil || v.IsNull() {
			return nil, false, err
		}
		*dst = append(*dst, v)
	}
	return *dst, true, nil
}

// hashBuild is a hash join's build side: its rows in arrival order,
// and for each distinct key the chain of rows that carry it, in
// arrival order too, so a probe row meets its matches in the order the
// build side produced them.
type hashBuild struct {
	keys  *keyTable
	rows  []sqltypes.Row
	first []int32 // by key entry: its first row
	last  []int32 // by key entry: its last row
	next  []int32 // by row: the next row with its key, -1 at the end
}

// buildTable drains the build side into a hashBuild, copying each row
// into an arena (batch producers reuse row backing).
func (c *hashJoinC) buildTable(rt runtime) (*hashBuild, error) {
	rit, err := c.build.open(rt)
	if err != nil {
		return nil, err
	}
	n := sizeHint(c.buildRows)
	hb := &hashBuild{
		keys:  newKeyTable(len(c.buildKeys), c.buildRows),
		rows:  make([]sqltypes.Row, 0, n),
		first: make([]int32, 0, n),
		last:  make([]int32, 0, n),
		next:  make([]int32, 0, n),
	}
	env := expr.Env{Params: rt.ctx.Params}
	var scratch []sqltypes.Value
	var arena RowArena
	err = drain(rit, func(rows []sqltypes.Row) error {
		rt.ctx.Tuples += int64(len(rows))
		for _, row := range rows {
			env.Row = row
			key, ok, err := evalKey(&scratch, &env, c.buildKeys, c.buildCols)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			r := int32(len(hb.rows))
			hb.rows = append(hb.rows, arena.Clone(row))
			hb.next = append(hb.next, -1)
			if e, fresh := hb.keys.insert(key); fresh {
				hb.first = append(hb.first, r)
				hb.last = append(hb.last, r)
			} else {
				hb.next[hb.last[e]] = r
				hb.last[e] = r
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return hb, nil
}

func (c *hashJoinC) open(rt runtime) (RowBatchIter, error) {
	hb, err := c.buildTable(rt)
	if err != nil {
		return nil, err
	}
	out := &probeIter{
		build: hb, inner: hb.rows, keys: c.probeKeys, keyCols: c.probeCols,
		innerLeft: c.buildLeft, env: expr.Env{Params: rt.ctx.Params}, ctx: rt.ctx, match: -1,
	}
	prt := rt
	if c.joinFilter {
		out.jf = &joinFilter{build: hb, cols: c.probeCols}
		prt.join = out.jf
	}
	if out.outer.in, err = c.probe.open(prt); err != nil {
		return nil, err
	}
	return maybeFilter(out, c.residual, rt.ctx), nil
}

// probeIter pairs each outer row with materialized inner rows: the
// chain of its key in the hash build, or — for a loop join, which has
// no build — all of them. A pair is the left input's row then the
// right's, whichever of them is the inner one. One tuple counts per
// outer row and one per pair. Output rows are carved from an arena
// reset for every batch; an outer row's pairs may straddle two batches,
// which the cursor's validity rule allows.
type probeIter struct {
	outer     cursor
	build     *hashBuild // nil: loop join
	inner     []sqltypes.Row
	innerLeft bool // the inner rows are the left input's
	keys      []expr.Compiled
	keyCols   []int            // the keys' positions when all are bare columns; else nil
	jf        *joinFilter      // the outer leaf's join filter; nil: none
	key       []sqltypes.Value // key scratch
	env       expr.Env
	ctx       *Ctx
	current   sqltypes.Row
	match     int32 // the inner row current pairs with next; -1: none left
	arena     RowArena
}

func (it *probeIter) NextBatch(b *Batch) (bool, error) {
	b.Reset()
	it.arena.Reset()
	for len(b.Rows) < BatchSize {
		if it.match >= 0 {
			l, r := it.current, it.inner[it.match]
			if it.innerLeft {
				l, r = r, l
			}
			b.Rows = append(b.Rows, it.arena.Combine(l, r))
			it.ctx.Tuples++
			it.match = it.nextMatch(it.match)
			continue
		}
		row, ok, err := it.outer.next()
		if err != nil {
			return false, err
		}
		if !ok {
			if it.jf != nil { // the rows the filter dropped after the last it passed
				it.ctx.Tuples += it.jf.pending
				it.jf.pending = 0
			}
			break
		}
		it.ctx.Tuples++
		it.current = row
		if it.match, err = it.firstMatch(row); err != nil {
			return false, err
		}
	}
	return len(b.Rows) > 0, nil
}

// firstMatch returns the first inner row that row pairs with, or -1.
// Under a join filter the outer row passed it, so its build entry is
// known, and the rows the filter dropped just before it count here.
func (it *probeIter) firstMatch(row sqltypes.Row) (int32, error) {
	if it.build == nil {
		if len(it.inner) == 0 {
			return -1, nil
		}
		return 0, nil
	}
	if it.jf != nil {
		i := it.outer.pos - 1
		it.ctx.Tuples += it.jf.gaps[i]
		return it.build.first[it.jf.hits[i]], nil
	}
	it.env.Row = row
	key, ok, err := evalKey(&it.key, &it.env, it.keys, it.keyCols)
	if err != nil || !ok {
		return -1, err
	}
	if e := it.build.keys.find(key); e >= 0 {
		return it.build.first[e], nil
	}
	return -1, nil
}

// nextMatch returns the inner row after r that current pairs with, or
// -1.
func (it *probeIter) nextMatch(r int32) int32 {
	if it.build != nil {
		return it.build.next[r]
	}
	if int(r)+1 < len(it.inner) {
		return r + 1
	}
	return -1
}

func (it *probeIter) Close() error { return it.outer.in.Close() }

type loopJoinC struct {
	left, right compiled
	cond        expr.Compiled
}

func (cp *compiler) compileLoopJoin(n *optimizer.LoopJoin, depth int) (compiled, error) {
	left, err := cp.compile(n.Left, depth+1)
	if err != nil {
		return nil, err
	}
	right, err := cp.compile(n.Right, depth+1)
	if err != nil {
		return nil, err
	}
	c := &loopJoinC{left: left, right: right}
	if c.cond, err = bindOpt(n.Cond, resolverFor(n.Out())); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *loopJoinC) open(rt runtime) (RowBatchIter, error) {
	rit, err := c.right.open(rt)
	if err != nil {
		return nil, err
	}
	rights, err := Collect(rit)
	if err != nil {
		return nil, err
	}
	lit, err := c.left.open(rt)
	if err != nil {
		return nil, err
	}
	out := &probeIter{outer: cursor{in: lit}, inner: rights, ctx: rt.ctx, match: -1}
	return maybeFilter(out, c.cond, rt.ctx), nil
}

type indexJoinC struct {
	left     compiled
	table    string
	index    string
	primary  bool
	cols     []int         // the inner table's schema ordinals read; nil: all
	keys     KeyRange      // equality prefix bound against left output
	residual expr.Compiled // bound against combined output
}

func (cp *compiler) compileIndexJoin(n *optimizer.IndexJoin, depth int) (compiled, error) {
	left, err := cp.compile(n.Left, depth+1)
	if err != nil {
		return nil, err
	}
	c := &indexJoinC{left: left, table: n.Table, index: n.Index, primary: n.Primary, cols: n.Ords}
	lres := resolverFor(n.Left.Out())
	for _, e := range n.LeftKeys {
		ce, err := expr.Bind(e, lres)
		if err != nil {
			return nil, err
		}
		c.keys.eq = append(c.keys.eq, ce)
	}
	if c.residual, err = bindOpt(n.Residual, resolverFor(n.Out())); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *indexJoinC) open(rt runtime) (RowBatchIter, error) {
	lit, err := c.left.open(rt)
	if err != nil {
		return nil, err
	}
	out := &indexJoinIter{c: c, rt: rt, left: cursor{in: lit}, env: expr.Env{Params: rt.ctx.Params}}
	return maybeFilter(out, c.residual, rt.ctx), nil
}

// indexJoinIter probes the inner table's index once per outer row and
// pairs the row with everything the probe yields, so a batch ends with
// the first outer row that fills it. One tuple counts per outer row and
// one per pair.
type indexJoinIter struct {
	c     *indexJoinC
	rt    runtime
	left  cursor
	env   expr.Env
	inner Batch // one probe's rows
	arena RowArena
}

func (it *indexJoinIter) NextBatch(b *Batch) (bool, error) {
	b.Reset()
	it.arena.Reset()
	for len(b.Rows) < BatchSize {
		row, ok, err := it.left.next()
		if err != nil {
			return false, err
		}
		if !ok {
			break
		}
		it.rt.ctx.Tuples++
		it.env.Row = row
		lo, hi, ok, err := it.c.keys.Bounds(&it.env)
		if err != nil {
			return false, err
		}
		if !ok {
			continue // NULL probe key: no matches
		}
		if err := it.pair(row, lo, hi, b); err != nil {
			return false, err
		}
	}
	return len(b.Rows) > 0, nil
}

// pair appends to b the outer row combined with every inner row whose
// key falls in [lo, hi).
func (it *indexJoinIter) pair(outer sqltypes.Row, lo, hi []byte, b *Batch) error {
	in, err := probe(it.rt.st, it.c.table, it.c.index, it.c.primary, lo, hi, it.c.cols, nil)
	if err != nil {
		return err
	}
	defer in.Close()
	for {
		ok, err := in.NextBatch(&it.inner)
		if err != nil || !ok {
			return err
		}
		it.rt.ctx.Tuples += int64(len(it.inner.Rows))
		for _, r := range it.inner.Rows {
			b.Rows = append(b.Rows, it.arena.Combine(outer, r))
		}
	}
}

func (it *indexJoinIter) Close() error { return it.left.in.Close() }
