// Package executor compiles optimizer plans into batch-at-a-time
// iterators (one contract for every operator, see batch.go) and runs
// them against a Storage implementation provided by the engine. Compiled
// plans are immutable and reusable — the engine's statement cache holds
// them across executions, which produces the cache warm-up effect of the
// paper's Figure 5.
package executor

import (
	"fmt"

	"repro/internal/optimizer"
	"repro/internal/sqltypes"
)

// Storage is the data-access surface the executor runs against. Key
// ranges use the order-preserving sqltypes.EncodeKey encoding; hi is
// exclusive. Every method yields rows of the columns cols — ascending
// schema ordinals, the plan leaf's Ords — or of every column when cols
// is nil, and only those of its visible rows that pass the sieve sv
// (nil: every one; see Sieve).
type Storage interface {
	// ScanTable iterates all rows of a base or virtual table.
	ScanTable(name string, cols []int, sv *Sieve) (RowBatchIter, error)
	// IndexRange yields base rows whose entry in the named secondary
	// index falls in [lo, hi).
	IndexRange(table, index string, lo, hi []byte, cols []int, sv *Sieve) (RowBatchIter, error)
	// PrimaryRange yields rows of a BTREE-structured table whose
	// primary key falls in [lo, hi).
	PrimaryRange(table string, lo, hi []byte, cols []int, sv *Sieve) (RowBatchIter, error)
}

// Ctx carries per-execution state: bound parameters, the actual-CPU
// counter the monitor records (one unit ≈ one tuple operation) and an
// optional per-operator trace (see trace.go).
type Ctx struct {
	Params []sqltypes.Value
	Tuples int64
	// Trace, when non-nil, receives per-operator row/time counts for
	// this execution. It must come from the same Prepared's NewTrace.
	Trace *ExecTrace
	// Parallel is the maximum intra-query worker count for morsel-driven
	// subtrees (see parallel.go). 0 or 1 keeps execution serial.
	Parallel int
	// Morsels, WorkerNanos and ParallelRuns accumulate morsel-execution
	// telemetry for this statement: morsels dispatched, summed worker
	// wall time, and how many operators fanned out.
	Morsels      int64
	WorkerNanos  int64
	ParallelRuns int64
}

// Prepared is a compiled, reusable plan.
type Prepared struct {
	root  compiled
	out   []optimizer.OutCol
	spans []SpanMeta // operator descriptions in pre-order
}

// Columns returns the output column descriptions.
func (p *Prepared) Columns() []optimizer.OutCol { return p.out }

// Run opens the plan against storage. The returned iterator must be
// closed; Collect drains and closes it.
func (p *Prepared) Run(st Storage, ctx *Ctx) (RowBatchIter, error) {
	return p.root.open(runtime{st: st, ctx: ctx})
}

// runtime is what an open needs; it travels by value, so a statement
// does not allocate one.
type runtime struct {
	st   Storage
	ctx  *Ctx
	join *joinFilter // for the sieve of a hash join's probe leaf; else nil
}

// compiled is a factory for one plan operator's iterator. An open that
// fails returns with everything it opened closed again.
type compiled interface {
	open(rt runtime) (RowBatchIter, error)
}

// Compile binds every expression in the plan and returns a reusable
// Prepared.
func Compile(plan *optimizer.Plan) (*Prepared, error) {
	var cp compiler
	root, err := cp.compile(plan.Root, 0)
	if err != nil {
		return nil, err
	}
	return &Prepared{root: root, out: plan.Root.Out(), spans: cp.spans}, nil
}

// compiler walks the plan tree assigning pre-order span IDs; operators
// with inputs compile their children through it so IDs stay aligned
// with the SpanMeta slice.
type compiler struct {
	spans  []SpanMeta
	sieved optimizer.Node // the leaf the hash join being compiled filters
}

func (cp *compiler) compile(n optimizer.Node, depth int) (compiled, error) {
	id := len(cp.spans)
	cp.spans = append(cp.spans, spanMetaFor(n, depth))
	if n == cp.sieved {
		cp.spans[id].Detail += " sieve=join"
	}
	var inner compiled
	var err error
	switch x := n.(type) {
	case *optimizer.SeqScan:
		inner, err = compileSeqScan(x)
	case *optimizer.IndexScan:
		inner, err = compileIndexScan(x)
	case *optimizer.HashJoin:
		inner, err = cp.compileHashJoin(x, depth)
	case *optimizer.LoopJoin:
		inner, err = cp.compileLoopJoin(x, depth)
	case *optimizer.IndexJoin:
		inner, err = cp.compileIndexJoin(x, depth)
	case *optimizer.Agg:
		inner, err = cp.compileAgg(x, depth)
	case *optimizer.Project:
		inner, err = cp.compileProject(x, depth)
	case *optimizer.Sort:
		inner, err = cp.compileSort(x, depth)
	case *optimizer.Strip:
		inner, err = cp.compileStrip(x, depth)
	case *optimizer.Distinct:
		inner, err = cp.compileDistinct(x, depth)
	case *optimizer.Limit:
		inner, err = cp.compileLimit(x, depth)
	default:
		return nil, fmt.Errorf("executor: unsupported plan node %T", n)
	}
	if err != nil {
		return nil, err
	}
	return &tracedC{inner: inner, id: id}, nil
}
