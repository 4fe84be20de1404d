// Package optimizer implements the cost-based query optimizer: access
// path selection (sequential scan vs. secondary index vs. primary
// B-Tree), greedy join ordering, histogram-based selectivity and a
// what-if mode that admits virtual indexes — the mechanism the paper's
// analyzer uses to let the DBMS itself decide which hypothetical
// indexes would actually be used.
package optimizer

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// Cost models a plan fragment's estimated resource usage in the units
// the monitor also records: tuple operations (CPU) and page I/Os.
type Cost struct {
	CPU  float64 // tuple operations
	IO   float64 // page reads/writes
	Rows float64 // output cardinality
}

// Total folds CPU and IO into one comparable number. A page I/O is
// weighted like 100 tuple operations, the classic rule of thumb the
// Ingres cost model also follows.
func (c Cost) Total() float64 { return c.IO + c.CPU/100 }

// Add combines child and own cost, keeping the receiver's cardinality.
func (c Cost) Add(other Cost) Cost {
	return Cost{CPU: c.CPU + other.CPU, IO: c.IO + other.IO, Rows: c.Rows}
}

// OutCol describes one column a plan node produces.
type OutCol struct {
	Table string // alias the column answers to ("" for computed)
	Name  string
	Type  sqltypes.Type
}

// Node is a physical plan operator.
type Node interface {
	// Out lists the columns the node produces, in order.
	Out() []OutCol
	// Est returns the cumulative estimated cost of the subtree.
	Est() Cost
}

// SeqScan reads a table front to back.
type SeqScan struct {
	Table string
	Alias string
	// Cols are the columns the scan yields, those the plan reads, and
	// Ords their schema ordinals, ascending; nil Ords: every column.
	Cols   []OutCol
	Ords   []int
	Filter sqlparser.Expr // residual predicate, may be nil
	EstC   Cost
}

// IndexScan probes a secondary index (or the primary B-Tree when
// Primary is set) with an equality prefix and an optional range on the
// following key column, then fetches the base rows.
type IndexScan struct {
	Table   string
	Alias   string
	Index   string // index name; unused when Primary
	Primary bool
	Cols    []OutCol // as for SeqScan
	Ords    []int
	// Eq are the equality key expressions for a prefix of the index
	// columns (literals or params only).
	Eq []sqlparser.Expr
	// Optional range bound on the key column after the Eq prefix.
	Lo, Hi         sqlparser.Expr
	LoIncl, HiIncl bool
	Filter         sqlparser.Expr // residual predicate, may be nil
	EstC           Cost
}

// HashJoin builds a hash table on one input and probes it with the
// other on the equi-join keys; its rows are Left's columns then
// Right's, whichever side is built.
type HashJoin struct {
	Left, Right Node
	// LeftKeys[i] joins with RightKeys[i].
	LeftKeys, RightKeys []sqlparser.Expr
	Residual            sqlparser.Expr // extra non-equi condition, may be nil
	BuildLeft           bool           // build on Left and probe with Right
	EstC                Cost
}

// BuildSide names the input a hash join builds on.
func (n *HashJoin) BuildSide() string {
	if n.BuildLeft {
		return "build=left"
	}
	return "build=right"
}

// JoinFilter returns the probe input when the executor tests its rows
// against the build keys inside its scan, before it materializes them:
// when that input is a leaf scan and every probe key a bare column of
// it. Else nil. EXPLAIN marks that leaf sieve=join.
func (n *HashJoin) JoinFilter() Node {
	probe, keys := n.Left, n.LeftKeys
	if n.BuildLeft {
		probe, keys = n.Right, n.RightKeys
	}
	for _, k := range keys {
		if _, ok := k.(sqlparser.ColumnRef); !ok {
			return nil
		}
	}
	switch probe.(type) {
	case *SeqScan, *IndexScan:
		return probe
	}
	return nil
}

// LoopJoin is a nested-loops join with an arbitrary condition; the
// right input is materialized and rescanned.
type LoopJoin struct {
	Left, Right Node
	Cond        sqlparser.Expr // may be nil (cross product)
	EstC        Cost
}

// IndexJoin probes an index of the right-hand table once per left row
// (index nested loops).
type IndexJoin struct {
	Left    Node
	Table   string
	Alias   string
	Index   string
	Primary bool
	Cols    []OutCol // columns of the right table, as for SeqScan
	Ords    []int
	// LeftKeys are expressions over the left input producing the probe
	// key for the index columns prefix.
	LeftKeys []sqlparser.Expr
	Residual sqlparser.Expr // may be nil
	EstC     Cost
}

// AggSpec is one aggregate computation.
type AggSpec struct {
	Func     string // COUNT, SUM, AVG, MIN, MAX
	Star     bool
	Distinct bool
	Arg      sqlparser.Expr // nil for COUNT(*)
}

// Agg groups its input and computes aggregates; output columns are the
// group expressions followed by the aggregates, answering to the "#"
// qualifier.
type Agg struct {
	Input   Node
	GroupBy []sqlparser.Expr
	Aggs    []AggSpec
	Having  sqlparser.Expr // rewritten to reference "#" columns
	// ParallelSafe marks the subtree eligible for morsel-driven parallel
	// execution: the input is a leaf sequential scan (filter pushed
	// down), and every aggregate merges across partial states (no
	// DISTINCT). Joins, index scans and row-order-dependent inputs stay
	// serial.
	ParallelSafe bool
	outCols      []OutCol
	EstC         Cost
}

// Project evaluates the select list.
type Project struct {
	Input Node
	Exprs []sqlparser.Expr
	Names []OutCol
	EstC  Cost
}

// Sort orders its input. Keys reference the input's output columns.
type Sort struct {
	Input Node
	Keys  []SortKey
	EstC  Cost
}

// SortKey is one sort criterion: a column offset in the input row.
type SortKey struct {
	Col  int
	Desc bool
}

// Strip drops hidden trailing columns (added for ORDER BY expressions
// that are not in the select list) after sorting.
type Strip struct {
	Input Node
	Keep  int
	EstC  Cost
}

// Distinct removes duplicate rows.
type Distinct struct {
	Input Node
	EstC  Cost
}

// Limit truncates its input.
type Limit struct {
	Input  Node
	N      int64
	Offset int64
	EstC   Cost
}

func (n *SeqScan) Out() []OutCol   { return n.Cols }
func (n *IndexScan) Out() []OutCol { return n.Cols }
func (n *HashJoin) Out() []OutCol {
	return append(append([]OutCol{}, n.Left.Out()...), n.Right.Out()...)
}
func (n *LoopJoin) Out() []OutCol {
	return append(append([]OutCol{}, n.Left.Out()...), n.Right.Out()...)
}
func (n *IndexJoin) Out() []OutCol { return append(append([]OutCol{}, n.Left.Out()...), n.Cols...) }
func (n *Agg) Out() []OutCol       { return n.outCols }
func (n *Project) Out() []OutCol   { return n.Names }
func (n *Strip) Out() []OutCol     { return n.Input.Out()[:n.Keep] }
func (n *Sort) Out() []OutCol      { return n.Input.Out() }
func (n *Distinct) Out() []OutCol  { return n.Input.Out() }
func (n *Limit) Out() []OutCol     { return n.Input.Out() }

func (n *SeqScan) Est() Cost   { return n.EstC }
func (n *IndexScan) Est() Cost { return n.EstC }
func (n *HashJoin) Est() Cost  { return n.EstC }
func (n *LoopJoin) Est() Cost  { return n.EstC }
func (n *IndexJoin) Est() Cost { return n.EstC }
func (n *Agg) Est() Cost       { return n.EstC }
func (n *Project) Est() Cost   { return n.EstC }
func (n *Strip) Est() Cost     { return n.EstC }
func (n *Sort) Est() Cost      { return n.EstC }
func (n *Distinct) Est() Cost  { return n.EstC }
func (n *Limit) Est() Cost     { return n.EstC }

// Plan is a complete optimized statement.
type Plan struct {
	Root Node
	Est  Cost
	// UsedIndexes lists index names the plan probes, with primary
	// structures reported as "<table>.primary" — the monitor's
	// "used indexes" sensor reads this.
	UsedIndexes []string
	// Attributes referenced by the statement, as "table.column".
	Attributes []string
}

// String renders the plan tree for EXPLAIN-style debugging.
func (p *Plan) String() string {
	var b strings.Builder
	var sieved Node // the leaf the hash join last walked filters
	var walk func(n Node, depth int)
	indent := func(d int) {
		for i := 0; i < d; i++ {
			b.WriteString("  ")
		}
	}
	walk = func(n Node, depth int) {
		indent(depth)
		sieve := ""
		if n == sieved {
			sieve = " sieve=join"
		}
		switch x := n.(type) {
		case *SeqScan:
			fmt.Fprintf(&b, "SeqScan %s (as %s) rows=%.0f io=%.0f%s\n", x.Table, x.Alias, x.EstC.Rows, x.EstC.IO, sieve)
		case *IndexScan:
			name := x.Index
			if x.Primary {
				name = x.Table + ".primary"
			}
			fmt.Fprintf(&b, "IndexScan %s via %s rows=%.0f io=%.0f%s\n", x.Table, name, x.EstC.Rows, x.EstC.IO, sieve)
		case *HashJoin:
			fmt.Fprintf(&b, "HashJoin rows=%.0f %s\n", x.EstC.Rows, x.BuildSide())
			sieved = x.JoinFilter()
			walk(x.Left, depth+1)
			sieved = x.JoinFilter() // the left input's joins set their own
			walk(x.Right, depth+1)
		case *LoopJoin:
			fmt.Fprintf(&b, "LoopJoin rows=%.0f\n", x.EstC.Rows)
			walk(x.Left, depth+1)
			walk(x.Right, depth+1)
		case *IndexJoin:
			name := x.Index
			if x.Primary {
				name = x.Table + ".primary"
			}
			fmt.Fprintf(&b, "IndexJoin %s via %s rows=%.0f\n", x.Table, name, x.EstC.Rows)
			walk(x.Left, depth+1)
		case *Agg:
			fmt.Fprintf(&b, "Agg groups=%d aggs=%d\n", len(x.GroupBy), len(x.Aggs))
			walk(x.Input, depth+1)
		case *Project:
			fmt.Fprintf(&b, "Project cols=%d\n", len(x.Exprs))
			walk(x.Input, depth+1)
		case *Sort:
			fmt.Fprintf(&b, "Sort keys=%d\n", len(x.Keys))
			walk(x.Input, depth+1)
		case *Strip:
			fmt.Fprintf(&b, "Strip keep=%d\n", x.Keep)
			walk(x.Input, depth+1)
		case *Distinct:
			b.WriteString("Distinct\n")
			walk(x.Input, depth+1)
		case *Limit:
			fmt.Fprintf(&b, "Limit %d offset %d\n", x.N, x.Offset)
			walk(x.Input, depth+1)
		default:
			fmt.Fprintf(&b, "%T\n", n)
		}
	}
	walk(p.Root, 0)
	return b.String()
}

// TableStats is what the optimizer needs to know about a table's
// physical state at plan time.
type TableStats struct {
	Rows        int64
	Pages       uint32
	BTreeHeight int // primary structure height; 0 for heap tables
}

// IndexStats describes an index's physical state. Virtual indexes get
// estimates derived from the base table.
type IndexStats struct {
	Pages  uint32
	Height int
}

// CatalogView is the metadata surface the optimizer plans against. The
// engine implements it over the live catalog and storage; tests may
// fake it.
type CatalogView interface {
	Table(name string) *catalog.Table
	TableIndexes(name string, withVirtual bool) []*catalog.Index
	Histogram(table, col string) *catalog.Histogram
	TableStats(name string) (TableStats, bool)
	IndexStats(name string) (IndexStats, bool)
}
