package executor

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/sqltypes"
)

type aggC struct {
	input   compiled
	groupBy []expr.Compiled
	aggs    []aggSpecC
	having  expr.Compiled // bound against the agg output
	outLen  int
	groups  float64 // estimated groups
	// scan, when non-nil, is the leaf sequential scan directly under
	// this aggregate of a parallel-safe subtree; open may then partition
	// it into page-range morsels (see parallel.go).
	// scanSpanID is the scan's trace span, filled once at merge time.
	scan       *seqScanC
	scanSpanID int
}

type aggSpecC struct {
	fn       string
	star     bool
	distinct bool
	arg      expr.Compiled
}

func (cp *compiler) compileAgg(n *optimizer.Agg, depth int) (compiled, error) {
	input, err := cp.compile(n.Input, depth+1)
	if err != nil {
		return nil, err
	}
	inRes := resolverFor(n.Input.Out())
	c := &aggC{input: input, outLen: len(n.Out()), groups: n.Est().Rows}
	for _, g := range n.GroupBy {
		ce, err := expr.Bind(g, inRes)
		if err != nil {
			return nil, err
		}
		c.groupBy = append(c.groupBy, ce)
	}
	for _, a := range n.Aggs {
		spec := aggSpecC{fn: a.Func, star: a.Star, distinct: a.Distinct}
		if a.Arg != nil {
			if spec.arg, err = expr.Bind(a.Arg, inRes); err != nil {
				return nil, err
			}
		}
		c.aggs = append(c.aggs, spec)
	}
	if c.having, err = bindOpt(n.Having, resolverFor(n.Out())); err != nil {
		return nil, err
	}
	if n.ParallelSafe {
		// The optimizer vouches for shape; re-derive the scan handle here
		// so hand-assembled plans cannot fan out an unsupported subtree.
		if tc, ok := input.(*tracedC); ok {
			if sc, ok := tc.inner.(*seqScanC); ok {
				distinct := false
				for _, a := range c.aggs {
					distinct = distinct || a.distinct
				}
				if !distinct {
					c.scan, c.scanSpanID = sc, tc.id
				}
			}
		}
	}
	return c, nil
}

// aggState accumulates one group. Every field composes across partial
// states (see mergeState in parallel.go), which is what makes
// morsel-parallel aggregation legal; a DISTINCT aggregate's seen values
// live in its run, not here, and do not.
type aggState struct {
	count   []int64
	sum     []float64
	sumI    []int64
	intOnly []bool
	minMax  []sqltypes.Value
	hasMM   []bool
	// firstOrd is the global first-seen ordinal of the group (morsel
	// index in the high half, row position within the morsel in the low
	// half); a parallel run merges groups in its order, which reproduces
	// the serial first-seen output order.
	firstOrd uint64
}

func (c *aggC) newState() *aggState {
	n := len(c.aggs)
	st := &aggState{
		count:   make([]int64, n),
		sum:     make([]float64, n),
		sumI:    make([]int64, n),
		intOnly: make([]bool, n),
		minMax:  make([]sqltypes.Value, n),
		hasMM:   make([]bool, n),
	}
	for i := range st.intOnly {
		st.intOnly[i] = true
	}
	return st
}

// accumulate adds the row in r.env to group g.
func (r *aggRun) accumulate(g int32) error {
	st := r.states[g]
	for i, a := range r.c.aggs {
		if a.star {
			st.count[i]++
			continue
		}
		v, err := a.arg.Eval(&r.env)
		if err != nil {
			return err
		}
		if v.IsNull() {
			continue // aggregates skip NULLs
		}
		if a.distinct {
			r.pair = [2]sqltypes.Value{sqltypes.NewInt(int64(g)), v}
			if _, fresh := r.seen[i].insert(r.pair[:]); !fresh {
				continue
			}
		}
		st.count[i]++
		switch a.fn {
		case "SUM", "AVG":
			if v.T == sqltypes.Int {
				st.sumI[i] += v.I
			} else {
				st.intOnly[i] = false
			}
			st.sum[i] += v.AsFloat()
		case "MIN":
			if !st.hasMM[i] || sqltypes.Compare(v, st.minMax[i]) < 0 {
				st.minMax[i] = v
				st.hasMM[i] = true
			}
		case "MAX":
			if !st.hasMM[i] || sqltypes.Compare(v, st.minMax[i]) > 0 {
				st.minMax[i] = v
				st.hasMM[i] = true
			}
		}
	}
	return nil
}

func (c *aggC) finalize(groupVals sqltypes.Row, st *aggState) (sqltypes.Row, error) {
	row := make(sqltypes.Row, 0, c.outLen)
	row = append(row, groupVals...)
	for i, a := range c.aggs {
		switch a.fn {
		case "COUNT":
			row = append(row, sqltypes.NewInt(st.count[i]))
		case "SUM":
			if st.count[i] == 0 {
				row = append(row, sqltypes.NullValue())
			} else if st.intOnly[i] {
				row = append(row, sqltypes.NewInt(st.sumI[i]))
			} else if math.IsNaN(st.sum[i]) {
				return nil, fmt.Errorf("executor: SUM yields NaN")
			} else {
				row = append(row, sqltypes.NewFloat(st.sum[i]))
			}
		case "AVG":
			// A float sum that met +Inf and -Inf is NaN, which has no
			// place in the value order: an error, as in arithmetic.
			if st.count[i] == 0 {
				row = append(row, sqltypes.NullValue())
			} else if math.IsNaN(st.sum[i]) {
				return nil, fmt.Errorf("executor: AVG yields NaN")
			} else {
				row = append(row, sqltypes.NewFloat(st.sum[i]/float64(st.count[i])))
			}
		case "MIN", "MAX":
			if !st.hasMM[i] {
				row = append(row, sqltypes.NullValue())
			} else {
				row = append(row, st.minMax[i])
			}
		default:
			return nil, fmt.Errorf("executor: unknown aggregate %q", a.fn)
		}
	}
	return row, nil
}

// aggRun is the per-execution accumulation state (one per morsel worker
// in a parallel run). Groups are numbered by their key table in
// first-seen order, which is the output order.
type aggRun struct {
	c      *aggC
	env    expr.Env
	groups *keyTable   // group values → group number
	states []*aggState // by group number
	// seen holds, for each DISTINCT aggregate, the (group number, value)
	// pairs it has counted; nil for the others.
	seen   []*keyTable
	key    sqltypes.Row // group-value scratch
	pair   [2]sqltypes.Value
	sawRow bool
	// ordBase/ordCount stamp each newborn group with its global
	// first-seen ordinal: a morsel worker sets ordBase to morsel<<32
	// before scanning it, so ordinals sort morsel-major and, within a
	// morsel, in scan order. Serial runs leave ordBase 0.
	ordBase  uint64
	ordCount uint64
}

func (c *aggC) newRun(params []sqltypes.Value) *aggRun {
	r := &aggRun{
		c:      c,
		env:    expr.Env{Params: params},
		groups: newKeyTable(len(c.groupBy), c.groups),
		seen:   make([]*keyTable, len(c.aggs)),
		key:    make(sqltypes.Row, len(c.groupBy)),
	}
	for i, a := range c.aggs {
		if a.distinct {
			r.seen[i] = newKeyTable(2, c.groups)
		}
	}
	return r
}

func (r *aggRun) addRow(row sqltypes.Row) error {
	r.sawRow = true
	r.env.Row = row
	for i, g := range r.c.groupBy {
		v, err := g.Eval(&r.env)
		if err != nil {
			return err
		}
		r.key[i] = v
	}
	g, fresh := r.groups.insert(r.key)
	if fresh {
		st := r.c.newState()
		st.firstOrd = r.ordBase + r.ordCount
		r.states = append(r.states, st)
	}
	r.ordCount++
	return r.accumulate(g)
}

// rows finalizes every group (applying HAVING) in first-seen order.
func (r *aggRun) rows() ([]sqltypes.Row, error) {
	c := r.c
	// A global aggregate over zero rows still yields one row.
	if !r.sawRow && len(c.groupBy) == 0 {
		r.groups.insert(nil)
		r.states = append(r.states, c.newState())
	}
	rows := make([]sqltypes.Row, 0, len(r.states))
	henv := expr.Env{Params: r.env.Params}
	for g, st := range r.states {
		row, err := c.finalize(r.groups.key(int32(g)), st)
		if err != nil {
			return nil, err
		}
		if c.having != nil {
			henv.Row = row
			v, err := c.having.Eval(&henv)
			if err != nil {
				return nil, err
			}
			if !v.Bool() {
				continue
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// open drains the input into the groups (aggregation is materializing,
// so the output is a slice iterator). A parallel-safe subtree over a
// large enough table fans out into morsel workers first; everything
// else takes the serial path below.
func (c *aggC) open(rt runtime) (RowBatchIter, error) {
	if it, handled, err := c.openParallel(rt); handled {
		return it, err
	}
	in, err := c.input.open(rt)
	if err != nil {
		return nil, err
	}
	run := c.newRun(rt.ctx.Params)
	err = drain(in, func(rows []sqltypes.Row) error {
		rt.ctx.Tuples += int64(len(rows))
		for _, row := range rows {
			if err := run.addRow(row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows, err := run.rows()
	if err != nil {
		return nil, err
	}
	return &SliceRowIter{Rows: rows}, nil
}

type projectC struct {
	input compiled
	exprs []expr.Compiled
}

func (cp *compiler) compileProject(n *optimizer.Project, depth int) (compiled, error) {
	input, err := cp.compile(n.Input, depth+1)
	if err != nil {
		return nil, err
	}
	res := resolverFor(n.Input.Out())
	c := &projectC{input: input}
	for _, e := range n.Exprs {
		ce, err := expr.Bind(e, res)
		if err != nil {
			return nil, err
		}
		c.exprs = append(c.exprs, ce)
	}
	return c, nil
}

func (c *projectC) open(rt runtime) (RowBatchIter, error) {
	in, err := c.input.open(rt)
	if err != nil {
		return nil, err
	}
	return &projectIter{in: in, exprs: c.exprs, env: expr.Env{Params: rt.ctx.Params}, ctx: rt.ctx}, nil
}

// projectIter evaluates each output expression column-at-a-time with
// expr.EvalBatch and scatters the column into row-major output rows,
// which replace the input rows in the caller's batch. Output rows and
// the column being evaluated share one reused backing slice, sized from
// the batch that arrives. Every input row counts as a tuple.
type projectIter struct {
	in    RowBatchIter
	exprs []expr.Compiled
	env   expr.Env
	ctx   *Ctx
	vals  []sqltypes.Value // n rows of w values, then one column of n
}

func (it *projectIter) NextBatch(b *Batch) (bool, error) {
	ok, err := it.in.NextBatch(b)
	if err != nil || !ok {
		return false, err
	}
	n, w := len(b.Rows), len(it.exprs)
	it.ctx.Tuples += int64(n)
	if cap(it.vals) < n*(w+1) {
		it.vals = make([]sqltypes.Value, n*(w+1))
	}
	out, col := it.vals[:n*w], it.vals[n*w:n*w:n*(w+1)]
	for j, e := range it.exprs {
		if col, err = expr.EvalBatch(e, &it.env, b.Rows, col[:0]); err != nil {
			return false, err
		}
		for i, v := range col {
			out[i*w+j] = v
		}
	}
	for i := range b.Rows {
		b.Rows[i] = sqltypes.Row(out[i*w : i*w+w : i*w+w])
	}
	return true, nil
}

func (it *projectIter) Close() error { return it.in.Close() }

type sortC struct {
	input compiled
	keys  []optimizer.SortKey
}

func (cp *compiler) compileSort(n *optimizer.Sort, depth int) (compiled, error) {
	input, err := cp.compile(n.Input, depth+1)
	if err != nil {
		return nil, err
	}
	return &sortC{input: input, keys: n.Keys}, nil
}

// open materializes the input — Collect copies the rows out of the
// transient batches — and sorts it.
func (c *sortC) open(rt runtime) (RowBatchIter, error) {
	in, err := c.input.open(rt)
	if err != nil {
		return nil, err
	}
	rows, err := Collect(in)
	if err != nil {
		return nil, err
	}
	rt.ctx.Tuples += int64(len(rows))
	c.sortRows(rows)
	return &SliceRowIter{Rows: rows}, nil
}

func (c *sortC) sortRows(rows []sqltypes.Row) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range c.keys {
			cmp := sqltypes.Compare(rows[i][k.Col], rows[j][k.Col])
			if cmp == 0 {
				continue
			}
			if k.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
}

type distinctC struct {
	input compiled
	width int     // columns per row
	rows  float64 // estimated distinct rows
}

func (cp *compiler) compileDistinct(n *optimizer.Distinct, depth int) (compiled, error) {
	input, err := cp.compile(n.Input, depth+1)
	if err != nil {
		return nil, err
	}
	return &distinctC{input: input, width: len(n.Out()), rows: n.Est().Rows}, nil
}

func (c *distinctC) open(rt runtime) (RowBatchIter, error) {
	in, err := c.input.open(rt)
	if err != nil {
		return nil, err
	}
	return &distinctIter{in: in, seen: newKeyTable(c.width, c.rows), ctx: rt.ctx}, nil
}

// distinctIter drops the rows it has seen before, compacting each input
// batch in place. Every input row counts as a tuple.
type distinctIter struct {
	in   RowBatchIter
	seen *keyTable // every distinct row so far
	ctx  *Ctx
}

func (it *distinctIter) NextBatch(b *Batch) (bool, error) {
	for {
		ok, err := it.in.NextBatch(b)
		if err != nil || !ok {
			return false, err
		}
		it.ctx.Tuples += int64(len(b.Rows))
		fresh := b.Rows[:0]
		for _, row := range b.Rows {
			if _, ok := it.seen.insert(row); ok {
				fresh = append(fresh, row)
			}
		}
		b.Rows = fresh
		if len(fresh) > 0 {
			return true, nil
		}
	}
}

func (it *distinctIter) Close() error { return it.in.Close() }

type limitC struct {
	input  compiled
	n      int64
	offset int64
}

func (cp *compiler) compileLimit(n *optimizer.Limit, depth int) (compiled, error) {
	input, err := cp.compile(n.Input, depth+1)
	if err != nil {
		return nil, err
	}
	return &limitC{input: input, n: n.N, offset: n.Offset}, nil
}

func (c *limitC) open(rt runtime) (RowBatchIter, error) {
	in, err := c.input.open(rt)
	if err != nil {
		return nil, err
	}
	return &limitIter{in: in, left: c.n, skip: c.offset}, nil
}

// limitIter passes through the rows after the first skip, at most left
// of them (left < 0: no limit). It is the one operator that stops
// before its input is exhausted: it asks for no batch beyond the one
// that completes the limit, and what the input still holds is released
// by Close.
type limitIter struct {
	in   RowBatchIter
	left int64
	skip int64
}

func (it *limitIter) NextBatch(b *Batch) (bool, error) {
	for it.left != 0 {
		ok, err := it.in.NextBatch(b)
		if err != nil || !ok {
			return false, err
		}
		n := int64(len(b.Rows))
		if it.skip >= n {
			it.skip -= n
			continue
		}
		if it.skip > 0 {
			b.Rows = b.Rows[:copy(b.Rows, b.Rows[it.skip:])]
			it.skip = 0
		}
		n = int64(len(b.Rows))
		if it.left >= 0 {
			n = min(n, it.left)
			it.left -= n
		}
		b.Rows = b.Rows[:n]
		return true, nil
	}
	b.Reset()
	return false, nil
}

func (it *limitIter) Close() error { return it.in.Close() }

type stripC struct {
	input compiled
	keep  int
}

func (cp *compiler) compileStrip(n *optimizer.Strip, depth int) (compiled, error) {
	input, err := cp.compile(n.Input, depth+1)
	if err != nil {
		return nil, err
	}
	return &stripC{input: input, keep: n.Keep}, nil
}

func (c *stripC) open(rt runtime) (RowBatchIter, error) {
	in, err := c.input.open(rt)
	if err != nil {
		return nil, err
	}
	return &stripIter{in: in, keep: c.keep}, nil
}

// stripIter reslices each row header in place; the rows' backing
// arrays are untouched, so the producer's batch stays intact.
type stripIter struct {
	in   RowBatchIter
	keep int
}

func (it *stripIter) NextBatch(b *Batch) (bool, error) {
	ok, err := it.in.NextBatch(b)
	for i, row := range b.Rows {
		b.Rows[i] = row[:it.keep]
	}
	return ok, err
}

func (it *stripIter) Close() error { return it.in.Close() }
