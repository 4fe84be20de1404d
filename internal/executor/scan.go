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

// filterIter applies a join's residual a batch at a time, through a
// sieve of its own that tests whole rows: the passing rows are
// compacted in place, so the output aliases the input batch (which is
// safe: the output is invalidated exactly when the input refills).
// Every input row counts as a tuple.
type filterIter struct {
	in RowBatchIter
	sv *Sieve
}

func (it *filterIter) NextBatch(b *Batch) (bool, error) {
	for {
		ok, err := it.in.NextBatch(b)
		if err != nil || !ok {
			return false, err
		}
		if b.Rows, err = it.sv.Sift(b.Rows); err != nil {
			return false, err
		}
		if len(b.Rows) > 0 {
			return true, nil
		}
	}
}

func (it *filterIter) Close() error { return it.in.Close() }

// maybeFilter applies an optional join residual.
func maybeFilter(in RowBatchIter, pred expr.Compiled, ctx *Ctx) RowBatchIter {
	if pred == nil {
		return in
	}
	return &filterIter{in: in, sv: newSieve(pred, nil, ctx)}
}

// countingIter counts the tuples a leaf with no sieve yields.
type countingIter struct {
	in  RowBatchIter
	ctx *Ctx
}

func (it *countingIter) NextBatch(b *Batch) (bool, error) {
	ok, err := it.in.NextBatch(b)
	it.ctx.Tuples += int64(len(b.Rows))
	return ok, err
}

func (it *countingIter) Close() error { return it.in.Close() }

// leaf puts a storage iterator under a scan operator's tuple
// accounting: with a sieve the storage counts every row it tests,
// without one every row yielded counts here.
func leaf(in RowBatchIter, sv *Sieve, ctx *Ctx) RowBatchIter {
	if sv == nil {
		return &countingIter{in: in, ctx: ctx}
	}
	return in
}

type seqScanC struct {
	table  string
	cols   []int // schema ordinals read; nil: every column
	filter expr.Compiled
}

func compileSeqScan(n *optimizer.SeqScan) (compiled, error) {
	f, err := bindOpt(n.Filter, resolverFor(n.Cols))
	if err != nil {
		return nil, err
	}
	return &seqScanC{table: n.Table, cols: n.Ords, filter: f}, nil
}

func (c *seqScanC) open(rt runtime) (RowBatchIter, error) {
	sv := newSieve(c.filter, rt.join, rt.ctx)
	it, err := rt.st.ScanTable(c.table, c.cols, sv)
	if err != nil {
		return nil, err
	}
	return leaf(it, sv, rt.ctx), nil
}

type indexScanC struct {
	table   string
	index   string
	primary bool
	cols    []int // schema ordinals read; nil: every column
	keys    *KeyRange
	filter  expr.Compiled
}

// KeyRange is an index probe's key expressions bound once — an
// equality prefix plus an optional range on the next key column — and
// turned into a key range per execution. Immutable, so a cached plan
// shares it across sessions.
type KeyRange struct {
	eq             []expr.Compiled
	lo, hi         expr.Compiled
	loIncl, hiIncl bool
}

// CompileKeyRange binds an IndexScan's key expressions. The engine's
// UPDATE and DELETE find their target rows through it.
func CompileKeyRange(n *optimizer.IndexScan) (*KeyRange, error) {
	// Key expressions are constant (literals/params): bind with an
	// empty row resolver.
	konst := &expr.SimpleResolver{}
	k := &KeyRange{loIncl: n.LoIncl, hiIncl: n.HiIncl}
	for _, e := range n.Eq {
		ce, err := expr.Bind(e, konst)
		if err != nil {
			return nil, err
		}
		k.eq = append(k.eq, ce)
	}
	var err error
	if k.lo, err = bindOpt(n.Lo, konst); err != nil {
		return nil, err
	}
	if k.hi, err = bindOpt(n.Hi, konst); err != nil {
		return nil, err
	}
	return k, nil
}

func compileIndexScan(n *optimizer.IndexScan) (compiled, error) {
	keys, err := CompileKeyRange(n)
	if err != nil {
		return nil, err
	}
	c := &indexScanC{table: n.Table, index: n.Index, primary: n.Primary, cols: n.Ords, keys: keys}
	if c.filter, err = bindOpt(n.Filter, resolverFor(n.Cols)); err != nil {
		return nil, err
	}
	return c, nil
}

// Bounds computes the [lo, hi) key range under env: the parameter
// vector, and for an index join the outer row. Returns ok=false when a
// probe value is NULL (no row can match).
func (k *KeyRange) Bounds(env *expr.Env) (lo, hi []byte, ok bool, err error) {
	var scratch [96]byte // keeps the prefix of an ordinary key off the heap
	prefix := scratch[:0]
	for _, ce := range k.eq {
		v, err := ce.Eval(env)
		if err != nil {
			return nil, nil, false, err
		}
		if v.IsNull() {
			return nil, nil, false, nil
		}
		prefix = sqltypes.EncodeKey(prefix, v)
	}
	if k.lo == nil && k.hi == nil {
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
	if k.lo != nil {
		v, err := k.lo.Eval(env)
		if err != nil {
			return nil, nil, false, err
		}
		if v.IsNull() {
			return nil, nil, false, nil
		}
		lo = sqltypes.EncodeKey(lo, v)
		if !k.loIncl {
			lo = append(lo, 0xFF)
		}
	}
	if k.hi != nil {
		v, err := k.hi.Eval(env)
		if err != nil {
			return nil, nil, false, err
		}
		if v.IsNull() {
			return nil, nil, false, nil
		}
		hi = sqltypes.EncodeKey(hi, v)
		if k.hiIncl {
			hi = append(hi, 0xFF)
		}
	} else {
		hi = append(hi, 0xFF)
	}
	return lo, hi, true, nil
}

func (c *indexScanC) open(rt runtime) (RowBatchIter, error) {
	env := expr.Env{Params: rt.ctx.Params}
	lo, hi, ok, err := c.keys.Bounds(&env)
	if err != nil {
		return nil, err
	}
	if !ok {
		return &SliceRowIter{}, nil
	}
	sv := newSieve(c.filter, rt.join, rt.ctx)
	it, err := probe(rt.st, c.table, c.index, c.primary, lo, hi, c.cols, sv)
	if err != nil {
		return nil, err
	}
	return leaf(it, sv, rt.ctx), nil
}

// probe opens the key range [lo, hi) of a table's primary structure or
// of one of its secondary indexes, reading the columns cols through the
// sieve sv (nil: none).
func probe(st Storage, table, index string, primary bool, lo, hi []byte, cols []int, sv *Sieve) (RowBatchIter, error) {
	if primary {
		return st.PrimaryRange(table, lo, hi, cols, sv)
	}
	return st.IndexRange(table, index, lo, hi, cols, sv)
}
