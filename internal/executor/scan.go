package executor

import (
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// resolverFor builds an expression resolver over a node's output
// columns.
func resolverFor(cols []optimizer.OutCol) *expr.SimpleResolver {
	r := &expr.SimpleResolver{Cols: make([]expr.ResolvedCol, len(cols))}
	for i, c := range cols {
		r.Cols[i] = expr.ResolvedCol{Table: c.Table, Name: c.Name, Type: c.Type}
	}
	return r
}

// bindOpt binds an optional expression (nil stays nil).
func bindOpt(e sqlparser.Expr, r expr.Resolver) (expr.Compiled, error) {
	if e == nil {
		return nil, nil
	}
	return expr.Bind(e, r)
}

// filterIter applies a predicate to its input.
type filterIter struct {
	in   RowIter
	pred expr.Compiled
	env  expr.Env
	ctx  *Ctx
}

func (it *filterIter) Next() (sqltypes.Row, bool, error) {
	for {
		row, ok, err := it.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		it.ctx.Tuples++
		it.env.Row = row
		v, err := it.pred.Eval(&it.env)
		if err != nil {
			return nil, false, err
		}
		if v.Bool() {
			return row, true, nil
		}
	}
}

func (it *filterIter) Close() error { return it.in.Close() }

func maybeFilter(in RowIter, pred expr.Compiled, rt *runtime) RowIter {
	if pred == nil {
		return in
	}
	return &filterIter{in: in, pred: pred, env: expr.Env{Params: rt.ctx.Params}, ctx: rt.ctx}
}

// BatchStorage is optionally implemented by Storage backends that can
// scan base tables a batch at a time (page-at-a-time page pinning plus
// arena row decoding in the engine adapter). Sequential scans use it
// when present and fall back to row-at-a-time ScanTable otherwise.
type BatchStorage interface {
	ScanTableBatch(name string) (RowBatchIter, error)
}

// filterBatchIter applies a predicate batch-at-a-time: the predicate
// column is evaluated with expr.EvalBatch and passing rows are
// compacted into the output batch (aliasing the input batch, which is
// safe: the output is invalidated exactly when the input refills).
// Tuple accounting matches filterIter: every input row counts.
type filterBatchIter struct {
	in   RowBatchIter
	pred expr.Compiled
	env  expr.Env
	ctx  *Ctx
	raw  Batch            // input scratch
	vals []sqltypes.Value // predicate column scratch
}

func (it *filterBatchIter) NextBatch(b *Batch) (bool, error) {
	b.Reset()
	for {
		ok, err := it.in.NextBatch(&it.raw)
		if err != nil {
			return false, err
		}
		if !ok {
			return len(b.Rows) > 0, nil
		}
		it.ctx.Tuples += int64(len(it.raw.Rows))
		it.vals = it.vals[:0]
		it.vals, err = expr.EvalBatch(it.pred, &it.env, it.raw.Rows, it.vals)
		if err != nil {
			return false, err
		}
		for i, row := range it.raw.Rows {
			if it.vals[i].Bool() {
				b.Rows = append(b.Rows, row)
			}
		}
		if len(b.Rows) > 0 {
			return true, nil
		}
	}
}

func (it *filterBatchIter) Close() error { return it.in.Close() }

// countingBatchIter counts tuples flowing through an unfiltered scan,
// mirroring countingIter.
type countingBatchIter struct {
	in  RowBatchIter
	ctx *Ctx
}

func (it *countingBatchIter) NextBatch(b *Batch) (bool, error) {
	ok, err := it.in.NextBatch(b)
	it.ctx.Tuples += int64(len(b.Rows))
	return ok, err
}

func (it *countingBatchIter) Close() error { return it.in.Close() }

type seqScanC struct {
	table  string
	filter expr.Compiled
}

func compileSeqScan(n *optimizer.SeqScan) (compiled, error) {
	f, err := bindOpt(n.Filter, resolverFor(n.Cols))
	if err != nil {
		return nil, err
	}
	return &seqScanC{table: n.Table, filter: f}, nil
}

func (c *seqScanC) open(rt *runtime) (RowIter, error) {
	it, err := rt.st.ScanTable(c.table)
	if err != nil {
		return nil, err
	}
	if c.filter == nil {
		return &countingIter{in: it, ctx: rt.ctx}, nil
	}
	return maybeFilter(it, c.filter, rt), nil
}

// openBatch scans the table batch-at-a-time when the storage backend
// supports it, applying the pushed-down filter vectorized. Otherwise
// the row-at-a-time open is bridged, which keeps counts identical.
func (c *seqScanC) openBatch(rt *runtime) (RowBatchIter, error) {
	bs, ok := rt.st.(BatchStorage)
	if !ok {
		it, err := c.open(rt)
		if err != nil {
			return nil, err
		}
		return RowsToBatch(it), nil
	}
	bi, err := bs.ScanTableBatch(c.table)
	if err != nil {
		return nil, err
	}
	if c.filter == nil {
		return &countingBatchIter{in: bi, ctx: rt.ctx}, nil
	}
	return &filterBatchIter{in: bi, pred: c.filter,
		env: expr.Env{Params: rt.ctx.Params}, ctx: rt.ctx}, nil
}

// countingIter counts tuples flowing through an unfiltered scan.
type countingIter struct {
	in  RowIter
	ctx *Ctx
}

func (it *countingIter) Next() (sqltypes.Row, bool, error) {
	row, ok, err := it.in.Next()
	if ok {
		it.ctx.Tuples++
	}
	return row, ok, err
}

func (it *countingIter) Close() error { return it.in.Close() }

type indexScanC struct {
	table   string
	index   string
	primary bool
	eq      []expr.Compiled
	lo, hi  expr.Compiled
	loIncl  bool
	hiIncl  bool
	filter  expr.Compiled
}

func compileIndexScan(n *optimizer.IndexScan) (compiled, error) {
	res := resolverFor(n.Cols)
	c := &indexScanC{table: n.Table, index: n.Index, primary: n.Primary,
		loIncl: n.LoIncl, hiIncl: n.HiIncl}
	// Key expressions are constant (literals/params): bind with an
	// empty row resolver.
	konst := &expr.SimpleResolver{}
	for _, e := range n.Eq {
		ce, err := expr.Bind(e, konst)
		if err != nil {
			return nil, err
		}
		c.eq = append(c.eq, ce)
	}
	var err error
	if c.lo, err = bindOpt(n.Lo, konst); err != nil {
		return nil, err
	}
	if c.hi, err = bindOpt(n.Hi, konst); err != nil {
		return nil, err
	}
	if c.filter, err = bindOpt(n.Filter, res); err != nil {
		return nil, err
	}
	return c, nil
}

// buildRange computes the [lo, hi) key range for an equality prefix
// plus optional range bounds. Returns ok=false when a probe value is
// NULL (no row can match).
func buildRange(env *expr.Env, eq []expr.Compiled, loE, hiE expr.Compiled, loIncl, hiIncl bool) (lo, hi []byte, ok bool, err error) {
	var scratch [96]byte // keeps the prefix of an ordinary key off the heap
	prefix := scratch[:0]
	for _, ce := range eq {
		v, err := ce.Eval(env)
		if err != nil {
			return nil, nil, false, err
		}
		if v.IsNull() {
			return nil, nil, false, nil
		}
		prefix = sqltypes.EncodeKey(prefix, v)
	}
	if loE == nil && hiE == nil {
		// Equality probe: both ends out of one allocation.
		n := len(prefix)
		out := make([]byte, 2*n+1)
		copy(out, prefix)
		copy(out[n:], prefix)
		out[2*n] = 0xFF
		return out[:n:n], out[n:], true, nil
	}
	lo = append([]byte(nil), prefix...)
	hi = append([]byte(nil), prefix...)
	if loE != nil {
		v, err := loE.Eval(env)
		if err != nil {
			return nil, nil, false, err
		}
		if v.IsNull() {
			return nil, nil, false, nil
		}
		lo = sqltypes.EncodeKey(lo, v)
		if !loIncl {
			lo = append(lo, 0xFF)
		}
	}
	if hiE != nil {
		v, err := hiE.Eval(env)
		if err != nil {
			return nil, nil, false, err
		}
		if v.IsNull() {
			return nil, nil, false, nil
		}
		hi = sqltypes.EncodeKey(hi, v)
		if hiIncl {
			hi = append(hi, 0xFF)
		}
	} else {
		hi = append(hi, 0xFF)
	}
	return lo, hi, true, nil
}

func (c *indexScanC) open(rt *runtime) (RowIter, error) {
	env := expr.Env{Params: rt.ctx.Params}
	lo, hi, ok, err := buildRange(&env, c.eq, c.lo, c.hi, c.loIncl, c.hiIncl)
	if err != nil {
		return nil, err
	}
	if !ok {
		return &SliceRowIter{}, nil
	}
	var it RowIter
	if c.primary {
		it, err = rt.st.PrimaryRange(c.table, lo, hi)
	} else {
		it, err = rt.st.IndexRange(c.table, c.index, lo, hi)
	}
	if err != nil {
		return nil, err
	}
	if c.filter == nil {
		return &countingIter{in: it, ctx: rt.ctx}, nil
	}
	return maybeFilter(it, c.filter, rt), nil
}
