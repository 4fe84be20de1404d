package executor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// joinKeyPool holds the key values the join filter must treat exactly
// as the probe's equality does: -0.0 against +0.0, Int 2 against Float
// 2.0, 2^53 and 2^53+1 against Float 2^53 (equal hashes, one equal
// value), text that spells a number, and NULL.
var joinKeyPool = []sqltypes.Value{
	sqltypes.NewInt(0), sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(0),
	sqltypes.NewInt(2), sqltypes.NewFloat(2), sqltypes.NewInt(1 << 53), sqltypes.NewInt(1<<53 + 1),
	sqltypes.NewFloat(1 << 53), sqltypes.NewText("2"), sqltypes.NewText("a"), sqltypes.NewText(""),
	sqltypes.NullValue(), sqltypes.NewInt(7), sqltypes.NewFloat(7.5),
}

// joinCase is one generated join: two tables, the side built, the key
// width and the optional filters, residual and LIMIT.
type joinCase struct {
	p, b                 []sqltypes.Row // p(id, k1, k2, pay), b(id, k1, k2, v)
	width                int
	buildP               bool // build on p and probe with b
	pFilter, bFilter     string
	residual             string
	limit                int64 // -1: none
	pCut, bCut, residCut int64
}

func genJoinCase(r *rand.Rand) joinCase {
	key := func() sqltypes.Value { return joinKeyPool[r.Intn(len(joinKeyPool))] }
	c := joinCase{width: 1 + r.Intn(2), buildP: r.Intn(2) == 0, limit: -1}
	for i, n := 0, r.Intn(3000); i < n; i++ {
		c.p = append(c.p, sqltypes.Row{sqltypes.NewInt(int64(i)), key(), key(), sqltypes.NewText(fmt.Sprintf("pay%d", i))})
	}
	for i, n := 0, r.Intn(60); i < n; i++ {
		c.b = append(c.b, sqltypes.Row{sqltypes.NewInt(int64(i)), key(), key(), sqltypes.NewInt(int64(r.Intn(100)))})
	}
	if r.Intn(2) == 0 {
		c.pCut = int64(r.Intn(5))
		c.pFilter = fmt.Sprintf("p.id %% 5 <> %d", c.pCut)
	}
	if r.Intn(2) == 0 {
		c.bCut = int64(r.Intn(60))
		c.bFilter = fmt.Sprintf("b.id >= %d", c.bCut)
	}
	if r.Intn(2) == 0 {
		c.residCut = int64(r.Intn(3000))
		c.residual = fmt.Sprintf("p.id + b.v > %d", c.residCut)
	}
	if r.Intn(3) == 0 {
		c.limit = int64(r.Intn(6000))
	}
	return c
}

// plan builds the case's join; both scans read every column.
func (c joinCase) plan(t *testing.T) *optimizer.HashJoin {
	cols := func(alias, last string, lastType sqltypes.Type) []optimizer.OutCol {
		return []optimizer.OutCol{{Table: alias, Name: "id", Type: sqltypes.Int}, {Table: alias, Name: "k1", Type: sqltypes.Int},
			{Table: alias, Name: "k2", Type: sqltypes.Int}, {Table: alias, Name: last, Type: lastType}}
	}
	opt := func(cond string) sqlparser.Expr {
		if cond == "" {
			return nil
		}
		return whereOf(t, cond)
	}
	j := &optimizer.HashJoin{
		Left:      &optimizer.SeqScan{Table: "p", Alias: "p", Cols: cols("p", "pay", sqltypes.Text), Filter: opt(c.pFilter)},
		Right:     &optimizer.SeqScan{Table: "b", Alias: "b", Cols: cols("b", "v", sqltypes.Int), Filter: opt(c.bFilter)},
		BuildLeft: c.buildP, Residual: opt(c.residual),
	}
	for _, k := range []string{"k1", "k2"}[:c.width] {
		j.LeftKeys = append(j.LeftKeys, sqlparser.ColumnRef{Table: "p", Name: k})
		j.RightKeys = append(j.RightKeys, sqlparser.ColumnRef{Table: "b", Name: k})
	}
	return j
}

// reference computes the case's rows and tuples by nested loops, and
// how many probe rows the probe leaf yields under a join filter: those
// that pass its filter and have an equal build key. The tuple count
// replays the batch pipeline the join filter must not change: each
// leaf counts every row it reads, the build every row it takes, the
// probe every outer row and every pair, the residual every pair, and a
// LIMIT stops the probe after the batch of BatchSize pairs (or the
// end) that completes it.
func (c joinCase) reference() (rows []sqltypes.Row, tuples int64, probeYield int) {
	pPass := func(row sqltypes.Row) bool { return c.pFilter == "" || row[0].I%5 != c.pCut }
	bPass := func(row sqltypes.Row) bool { return c.bFilter == "" || row[0].I >= c.bCut }
	probe, build, probePass, buildPass := c.p, c.b, pPass, bPass
	if c.buildP {
		probe, build, probePass, buildPass = c.b, c.p, bPass, pPass
	}
	var built []sqltypes.Row
	for _, row := range build {
		if buildPass(row) {
			built = append(built, row)
		}
	}
	tuples = int64(len(build) + len(built))
	equal := func(a, b sqltypes.Row) bool {
		for k := 1; k <= c.width; k++ {
			if a[k].IsNull() || b[k].IsNull() || sqltypes.Compare(a[k], b[k]) != 0 {
				return false
			}
		}
		return true
	}
	pair := func(probeRow, buildRow sqltypes.Row) sqltypes.Row {
		if c.buildP {
			return append(slices.Clone(buildRow), probeRow...)
		}
		return append(slices.Clone(probeRow), buildRow...)
	}
	// The probe, batch by batch: the leaf's rows come in chunks of
	// BatchSize read whole, and a chunk none of whose rows pass the
	// leaf's filter is skipped within the same read.
	var outer []sqltypes.Row // read, filtered, not yet met
	next := 0                // the next probe row to read
	var pending []sqltypes.Row
	outerRow := func() (sqltypes.Row, bool) {
		for len(outer) == 0 && next < len(probe) {
			end := min(next+BatchSize, len(probe))
			tuples += int64(end - next)
			for _, row := range probe[next:end] {
				if probePass(row) {
					outer = append(outer, row)
				}
			}
			next = end
		}
		if len(outer) == 0 {
			return nil, false
		}
		row := outer[0]
		outer = outer[1:]
		return row, true
	}
	for c.limit < 0 || int64(len(rows)) < c.limit {
		var batch []sqltypes.Row
		for len(batch) < BatchSize {
			if len(pending) > 0 {
				batch = append(batch, pending[0])
				pending = pending[1:]
				tuples++
				continue
			}
			row, ok := outerRow()
			if !ok {
				break
			}
			tuples++
			matched := false
			for _, b := range built {
				if equal(row, b) {
					pending = append(pending, pair(row, b))
					matched = true
				}
			}
			if matched {
				probeYield++
			}
		}
		if len(batch) == 0 {
			break
		}
		for _, row := range batch {
			if c.residual != "" {
				tuples++
				if row[0].I+row[7].I <= c.residCut { // p.id + b.v
					continue
				}
			}
			rows = append(rows, row)
		}
	}
	if c.limit >= 0 && int64(len(rows)) > c.limit {
		rows = rows[:c.limit]
	}
	return rows, tuples, probeYield
}

// TestJoinFilterDropsOnlyMisses: a hash join whose probe input is a
// leaf scan filters that scan's rows against the build keys. Over
// generated tables — Int, Float, Text and NULL keys at the equality's
// edges, duplicate and two-column keys, either side built, with and
// without leaf filters, a residual and a LIMIT — it returns exactly the
// nested-loop join's rows, in its order, with its tuple count, and the
// probe leaf yields exactly the rows with a match. A filter that fails
// on some rows still fails the statement.
func TestJoinFilterDropsOnlyMisses(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for round := 0; round < 300; round++ {
		c := genJoinCase(r)
		st := newMemStorage()
		st.tables["p"], st.tables["b"] = c.p, c.b
		var root optimizer.Node = c.plan(t)
		if c.limit >= 0 {
			root = &optimizer.Limit{Input: root, N: c.limit}
		}
		prep, err := Compile(&optimizer.Plan{Root: root})
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Ctx{Trace: prep.NewTrace()}
		it, err := prep.Run(st, ctx)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Collect(it)
		if err != nil {
			t.Fatal(err)
		}
		want, tuples, yield := c.reference()
		name := fmt.Sprintf("round %d (build p %v, width %d, filters %q %q, residual %q, limit %d)",
			round, c.buildP, c.width, c.pFilter, c.bFilter, c.residual, c.limit)
		if len(rows) != len(want) {
			t.Fatalf("%s: %d rows, want %d", name, len(rows), len(want))
		}
		for i := range rows {
			if !slices.Equal(rows[i], want[i]) {
				t.Fatalf("%s: row %d is %v, want %v", name, i, rows[i], want[i])
			}
		}
		if ctx.Tuples != tuples {
			t.Errorf("%s: %d tuples, want %d", name, ctx.Tuples, tuples)
		}
		// Pre-order spans: the Limit (if any), the join, its left leaf,
		// its right leaf. The probe leaf yields the rows with a match.
		metas, base := prep.SpanMetas(), 0
		if c.limit >= 0 {
			base = 1
		}
		probeSpan := base + 1
		if c.buildP {
			probeSpan = base + 2
		}
		if !strings.HasSuffix(metas[probeSpan].Detail, "sieve=join") {
			t.Fatalf("%s: the probe leaf's span is %+v, want sieve=join", name, metas[probeSpan])
		}
		if got := ctx.Trace.Counts[probeSpan].Rows; c.limit < 0 && got != int64(yield) {
			t.Errorf("%s: the probe leaf yields %d rows, want the %d with a match", name, got, yield)
		}
	}

	// A filter that fails on some rows fails the statement, on either
	// leaf and whichever side is built.
	c := genJoinCase(r)
	for len(c.p) < 100 || len(c.b) < 10 {
		c = genJoinCase(r)
	}
	st := newMemStorage()
	st.tables["p"], st.tables["b"] = c.p, c.b
	for _, buildP := range []bool{false, true} {
		for _, leaf := range []string{"p", "b"} {
			c.buildP, c.pFilter, c.bFilter, c.residual = buildP, "", "", ""
			j := c.plan(t)
			fails := whereOf(t, fmt.Sprintf("1 / (%s.id - 5) > 0", leaf))
			if leaf == "p" {
				j.Left.(*optimizer.SeqScan).Filter = fails
			} else {
				j.Right.(*optimizer.SeqScan).Filter = fails
			}
			prep, err := Compile(&optimizer.Plan{Root: j})
			if err != nil {
				t.Fatal(err)
			}
			it, err := prep.Run(st, &Ctx{})
			if err == nil {
				_, err = Collect(it)
			}
			if err == nil || !strings.Contains(err.Error(), "division by zero") {
				t.Errorf("build p %v, failing filter on %s: err = %v, want division by zero", buildP, leaf, err)
			}
		}
	}
}
