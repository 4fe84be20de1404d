package executor

import (
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/sqltypes"
)

type hashJoinC struct {
	left, right compiled
	leftKeys    []expr.Compiled // bound against left output
	rightKeys   []expr.Compiled // bound against right output
	residual    expr.Compiled   // bound against combined output
	leftWidth   int
}

func (cp *compiler) compileHashJoin(n *optimizer.HashJoin, depth int) (compiled, error) {
	left, err := cp.compile(n.Left, depth+1)
	if err != nil {
		return nil, err
	}
	right, err := cp.compile(n.Right, depth+1)
	if err != nil {
		return nil, err
	}
	c := &hashJoinC{left: left, right: right, leftWidth: len(n.Left.Out())}
	lres := resolverFor(n.Left.Out())
	rres := resolverFor(n.Right.Out())
	for _, e := range n.LeftKeys {
		ce, err := expr.Bind(e, lres)
		if err != nil {
			return nil, err
		}
		c.leftKeys = append(c.leftKeys, ce)
	}
	for _, e := range n.RightKeys {
		ce, err := expr.Bind(e, rres)
		if err != nil {
			return nil, err
		}
		c.rightKeys = append(c.rightKeys, ce)
	}
	if c.residual, err = bindOpt(n.Residual, resolverFor(n.Out())); err != nil {
		return nil, err
	}
	return c, nil
}

// joinKey encodes the key values into buf, reusing its capacity, and
// returns the extended buffer; ok=false if any value is NULL (SQL equi
// joins never match on NULL). Callers keep one buffer per execution so
// key encoding is allocation-free after the first row.
func joinKey(buf []byte, env *expr.Env, keys []expr.Compiled) ([]byte, bool, error) {
	buf = buf[:0]
	for _, k := range keys {
		v, err := k.Eval(env)
		if err != nil {
			return buf, false, err
		}
		if v.IsNull() {
			return buf, false, nil
		}
		buf = sqltypes.EncodeKey(buf, v)
	}
	return buf, true, nil
}

// buildHashTable drains the build side into the key→rows table,
// copying each row into an arena (batch producers reuse row backing).
func (c *hashJoinC) buildHashTable(rt runtime) (map[string][]sqltypes.Row, error) {
	rit, err := c.right.open(rt)
	if err != nil {
		return nil, err
	}
	table := map[string][]sqltypes.Row{}
	env := expr.Env{Params: rt.ctx.Params}
	var keyBuf []byte
	var arena RowArena
	err = drain(rit, func(rows []sqltypes.Row) error {
		rt.ctx.Tuples += int64(len(rows))
		for _, row := range rows {
			env.Row = row
			key, ok, err := joinKey(keyBuf, &env, c.rightKeys)
			if err != nil {
				return err
			}
			keyBuf = key
			if ok {
				table[string(keyBuf)] = append(table[string(keyBuf)], arena.Clone(row))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return table, nil
}

func (c *hashJoinC) open(rt runtime) (RowBatchIter, error) {
	// Build phase on the right input.
	table, err := c.buildHashTable(rt)
	if err != nil {
		return nil, err
	}
	lit, err := c.left.open(rt)
	if err != nil {
		return nil, err
	}
	out := &probeIter{
		left: cursor{in: lit}, table: table, keys: c.leftKeys,
		env: expr.Env{Params: rt.ctx.Params}, ctx: rt.ctx,
	}
	return maybeFilter(out, c.residual, rt.ctx), nil
}

// probeIter pairs each outer row with materialized inner rows: the hash
// bucket of its key, or — for a loop join, which has no key — all of
// them. One tuple counts per outer row and one per pair. Output rows
// are carved from an arena reset for every batch; an outer row's pairs
// may straddle two batches, which the cursor's validity rule allows.
type probeIter struct {
	left    cursor
	table   map[string][]sqltypes.Row // nil: loop join
	all     []sqltypes.Row            // the inner rows of a loop join
	keys    []expr.Compiled
	env     expr.Env
	ctx     *Ctx
	current sqltypes.Row
	matches []sqltypes.Row // inner rows current still has to be paired with
	keyBuf  []byte
	arena   RowArena
}

func (it *probeIter) NextBatch(b *Batch) (bool, error) {
	b.Reset()
	it.arena.Reset()
	for len(b.Rows) < BatchSize {
		if len(it.matches) > 0 {
			n := min(len(it.matches), BatchSize-len(b.Rows))
			for _, r := range it.matches[:n] {
				b.Rows = append(b.Rows, it.arena.Combine(it.current, r))
			}
			it.matches = it.matches[n:]
			it.ctx.Tuples += int64(n)
			continue
		}
		row, ok, err := it.left.next()
		if err != nil {
			return false, err
		}
		if !ok {
			break
		}
		it.ctx.Tuples++
		it.current = row
		if it.table == nil {
			it.matches = it.all
			continue
		}
		it.env.Row = row
		if it.keyBuf, ok, err = joinKey(it.keyBuf, &it.env, it.keys); err != nil {
			return false, err
		}
		if ok {
			it.matches = it.table[string(it.keyBuf)]
		}
	}
	return len(b.Rows) > 0, nil
}

func (it *probeIter) Close() error { return it.left.in.Close() }

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
	out := &probeIter{left: cursor{in: lit}, all: rights, ctx: rt.ctx}
	return maybeFilter(out, c.cond, rt.ctx), nil
}

type indexJoinC struct {
	left     compiled
	table    string
	index    string
	primary  bool
	keys     KeyRange      // equality prefix bound against left output
	residual expr.Compiled // bound against combined output
}

func (cp *compiler) compileIndexJoin(n *optimizer.IndexJoin, depth int) (compiled, error) {
	left, err := cp.compile(n.Left, depth+1)
	if err != nil {
		return nil, err
	}
	c := &indexJoinC{left: left, table: n.Table, index: n.Index, primary: n.Primary}
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
	in, err := probe(it.rt.st, it.c.table, it.c.index, it.c.primary, lo, hi)
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
