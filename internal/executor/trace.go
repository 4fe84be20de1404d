package executor

import (
	"fmt"
	"time"

	"repro/internal/optimizer"
)

// Statement tracing: Compile assigns every plan operator a pre-order
// span ID and wraps its compiled form in tracedC. When Ctx.Trace is
// nil (every normal execution, including cached plans) the wrapper
// costs one nil check per operator open and nothing per row. When a
// trace is attached (EXPLAIN ANALYZE), each operator's iterator is
// wrapped to count rows and to accumulate inclusive wall time —
// including time spent in open(), where blocking operators (hash-join
// build, sort, aggregate) do their real work.

// SpanMeta is the static description of one plan operator, fixed at
// compile time. Spans are stored in pre-order: parents precede
// children, exactly as Plan.String renders the tree.
type SpanMeta struct {
	Kind    string  // operator kind (SeqScan, HashJoin, ...)
	Detail  string  // operator-specific detail (table, index, ...)
	Depth   int     // depth in the plan tree; root is 0
	EstRows float64 // optimizer cardinality estimate
}

// SpanCount is the actual execution record of one operator.
type SpanCount struct {
	Rows  int64 // rows the operator produced
	Nanos int64 // inclusive wall time (open + NextBatch), includes children
	Calls int64 // defined where it is published: ima_spans in ima/relations.go
}

// ExecTrace collects per-operator actuals for a single execution; index
// corresponds to SpanMetas(). It is not safe for concurrent use.
type ExecTrace struct {
	Counts []SpanCount
}

// SpanMetas returns the plan's operator descriptions in pre-order.
func (p *Prepared) SpanMetas() []SpanMeta { return p.spans }

// SelfTimes derives each operator's self time — inclusive Nanos minus
// the inclusive Nanos of its direct children — from the pre-order span
// layout. Children are exactly the following spans at Depth+1 until a
// span at the operator's own depth (or shallower) closes the subtree.
// Clock granularity can make a parent's measured inclusive time
// marginally smaller than its children's sum; those are clamped to 0.
func SelfTimes(metas []SpanMeta, counts []SpanCount) []int64 {
	self := make([]int64, len(metas))
	for i := range metas {
		self[i] = counts[i].Nanos
		for j := i + 1; j < len(metas) && metas[j].Depth > metas[i].Depth; j++ {
			if metas[j].Depth == metas[i].Depth+1 {
				self[i] -= counts[j].Nanos
			}
		}
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// NewTrace returns a trace sized for this plan, to be set on Ctx.Trace
// before Run.
func (p *Prepared) NewTrace() *ExecTrace {
	return &ExecTrace{Counts: make([]SpanCount, len(p.spans))}
}

// tracedC wraps every compiled operator with its span ID.
type tracedC struct {
	inner compiled
	id    int
}

func (c *tracedC) open(rt runtime) (RowBatchIter, error) {
	tr := rt.ctx.Trace
	if tr == nil {
		return c.inner.open(rt)
	}
	sc := &tr.Counts[c.id]
	t0 := time.Now()
	it, err := c.inner.open(rt)
	sc.Nanos += time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, err
	}
	return &spanIter{in: it, sc: sc}, nil
}

// spanIter records one operator's actuals. An operator a Limit stops
// early reports the rows it produced, not the rows the Limit consumed.
type spanIter struct {
	in RowBatchIter
	sc *SpanCount
}

func (it *spanIter) NextBatch(b *Batch) (bool, error) {
	t0 := time.Now()
	ok, err := it.in.NextBatch(b)
	it.sc.Nanos += time.Since(t0).Nanoseconds()
	if ok {
		it.sc.Rows += int64(len(b.Rows))
		it.sc.Calls += int64(len(b.Rows))
	} else {
		it.sc.Calls++
	}
	return ok, err
}

func (it *spanIter) Close() error { return it.in.Close() }

// spanMetaFor derives the static span description from a plan node,
// matching Plan.String's vocabulary so EXPLAIN and EXPLAIN ANALYZE
// render the same operators.
func spanMetaFor(n optimizer.Node, depth int) SpanMeta {
	m := SpanMeta{Depth: depth, EstRows: n.Est().Rows}
	switch x := n.(type) {
	case *optimizer.SeqScan:
		m.Kind = "SeqScan"
		m.Detail = x.Table
		if x.Alias != "" && x.Alias != x.Table {
			m.Detail += " (as " + x.Alias + ")"
		}
	case *optimizer.IndexScan:
		m.Kind = "IndexScan"
		m.Detail = x.Table + " via " + indexName(x.Table, x.Index, x.Primary)
	case *optimizer.HashJoin:
		m.Kind = "HashJoin"
		m.Detail = x.BuildSide()
	case *optimizer.LoopJoin:
		m.Kind = "LoopJoin"
	case *optimizer.IndexJoin:
		m.Kind = "IndexJoin"
		m.Detail = x.Table + " via " + indexName(x.Table, x.Index, x.Primary)
	case *optimizer.Agg:
		m.Kind = "Agg"
		m.Detail = fmt.Sprintf("groups=%d aggs=%d", len(x.GroupBy), len(x.Aggs))
	case *optimizer.Project:
		m.Kind = "Project"
		m.Detail = fmt.Sprintf("cols=%d", len(x.Exprs))
	case *optimizer.Sort:
		m.Kind = "Sort"
		m.Detail = fmt.Sprintf("keys=%d", len(x.Keys))
	case *optimizer.Strip:
		m.Kind = "Strip"
		m.Detail = fmt.Sprintf("keep=%d", x.Keep)
	case *optimizer.Distinct:
		m.Kind = "Distinct"
	case *optimizer.Limit:
		m.Kind = "Limit"
		m.Detail = fmt.Sprintf("%d offset %d", x.N, x.Offset)
	default:
		m.Kind = fmt.Sprintf("%T", n)
	}
	return m
}

func indexName(table, index string, primary bool) string {
	if primary {
		return table + ".primary"
	}
	return index
}
