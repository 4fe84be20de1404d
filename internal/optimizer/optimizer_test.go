package optimizer

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// fakeCatalog implements CatalogView over plain maps for direct
// optimizer tests without an engine.
type fakeCatalog struct {
	tables  map[string]*catalog.Table
	indexes []*catalog.Index
	hists   map[string]*catalog.Histogram
	stats   map[string]TableStats
}

func (f *fakeCatalog) Table(name string) *catalog.Table {
	return f.tables[strings.ToLower(name)]
}

func (f *fakeCatalog) TableIndexes(name string, withVirtual bool) []*catalog.Index {
	var out []*catalog.Index
	for _, ix := range f.indexes {
		if strings.EqualFold(ix.Table, name) && (withVirtual || !ix.Virtual) {
			out = append(out, ix)
		}
	}
	return out
}

func (f *fakeCatalog) Histogram(table, col string) *catalog.Histogram {
	return f.hists[strings.ToLower(table)+"."+strings.ToLower(col)]
}

func (f *fakeCatalog) TableStats(name string) (TableStats, bool) {
	st, ok := f.stats[strings.ToLower(name)]
	return st, ok
}

func (f *fakeCatalog) IndexStats(name string) (IndexStats, bool) {
	return IndexStats{}, false
}

func newFakeCatalog() *fakeCatalog {
	f := &fakeCatalog{
		tables: map[string]*catalog.Table{},
		hists:  map[string]*catalog.Histogram{},
		stats:  map[string]TableStats{},
	}
	add := func(name string, rows int64, pages uint32, pk []string, cols ...sqltypes.Column) {
		f.tables[name] = &catalog.Table{
			Name:       name,
			Schema:     sqltypes.NewSchema(cols...),
			Structure:  catalog.Heap,
			PrimaryKey: pk,
			Rows:       rows,
			MainPages:  1,
		}
		f.stats[name] = TableStats{Rows: rows, Pages: pages}
	}
	add("big", 100000, 2500, []string{"id"},
		sqltypes.Column{Name: "id", Type: sqltypes.Int},
		sqltypes.Column{Name: "grp", Type: sqltypes.Int},
		sqltypes.Column{Name: "txt", Type: sqltypes.Text},
	)
	add("small", 100, 3, []string{"k"},
		sqltypes.Column{Name: "k", Type: sqltypes.Int},
		sqltypes.Column{Name: "label", Type: sqltypes.Text},
	)
	f.indexes = append(f.indexes, &catalog.Index{
		Name: "pk_big", Table: "big", Columns: []string{"id"}, Unique: true,
	})
	return f
}

func planFor(t *testing.T, cat CatalogView, sql string, opt Options) *Plan {
	t.Helper()
	st, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanSelect(st.(*sqlparser.SelectStmt), cat, opt)
	if err != nil {
		t.Fatalf("PlanSelect(%q): %v", sql, err)
	}
	return plan
}

func TestAccessPathChoice(t *testing.T) {
	cat := newFakeCatalog()
	// Unique key lookup: index scan.
	p := planFor(t, cat, "SELECT txt FROM big WHERE id = 7", Options{})
	if !strings.Contains(p.String(), "IndexScan big via pk_big") {
		t.Errorf("pk lookup did not use the index:\n%s", p.String())
	}
	if p.Est.Rows != 1 {
		t.Errorf("pk lookup estimated rows = %v, want 1", p.Est.Rows)
	}
	// Unselective predicate: sequential scan.
	p = planFor(t, cat, "SELECT txt FROM big WHERE grp <> 1", Options{})
	if !strings.Contains(p.String(), "SeqScan big") {
		t.Errorf("unselective predicate should scan:\n%s", p.String())
	}
	// Tiny table: scan even with an available pk index path.
	p = planFor(t, cat, "SELECT label FROM small WHERE k = 3", Options{})
	if strings.Contains(p.String(), "IndexScan") {
		t.Errorf("tiny table should scan:\n%s", p.String())
	}
}

func TestRangePredicateUsesIndexWithHistogram(t *testing.T) {
	cat := newFakeCatalog()
	cat.indexes = append(cat.indexes, &catalog.Index{
		Name: "ix_grp", Table: "big", Columns: []string{"grp"},
	})
	// A histogram showing grp spans 0..999 uniformly: a narrow range is
	// selective enough for the index.
	var vals []sqltypes.Value
	for i := 0; i < 10000; i++ {
		vals = append(vals, sqltypes.NewInt(int64(i%1000)))
	}
	cat.hists["big.grp"] = catalog.BuildHistogram("big", "grp", vals, 20)

	p := planFor(t, cat, "SELECT id FROM big WHERE grp BETWEEN 10 AND 12", Options{})
	if !strings.Contains(p.String(), "IndexScan big via ix_grp") {
		t.Errorf("narrow range should probe the index:\n%s", p.String())
	}
	wide := planFor(t, cat, "SELECT id FROM big WHERE grp BETWEEN 10 AND 900", Options{})
	if strings.Contains(wide.String(), "IndexScan") {
		t.Errorf("wide range should scan:\n%s", wide.String())
	}
}

func TestVirtualIndexOnlyInWhatIfMode(t *testing.T) {
	cat := newFakeCatalog()
	cat.indexes = append(cat.indexes, &catalog.Index{
		Name: "vx_grp", Table: "big", Columns: []string{"grp"}, Virtual: true,
	})
	normal := planFor(t, cat, "SELECT id FROM big WHERE grp = 5", Options{})
	if strings.Contains(normal.String(), "vx_grp") {
		t.Errorf("virtual index used outside what-if:\n%s", normal.String())
	}
	whatIf := planFor(t, cat, "SELECT id FROM big WHERE grp = 5", Options{WithVirtualIndexes: true})
	if !strings.Contains(whatIf.String(), "vx_grp") {
		t.Errorf("what-if ignored the virtual index:\n%s", whatIf.String())
	}
	if whatIf.Est.Total() >= normal.Est.Total() {
		t.Errorf("what-if estimate %v not cheaper than %v", whatIf.Est, normal.Est)
	}
}

func TestJoinOrderSmallestFirstAndIndexJoin(t *testing.T) {
	cat := newFakeCatalog()
	p := planFor(t, cat, "SELECT big.txt FROM big JOIN small ON big.id = small.k", Options{})
	// The small side should drive an index join into big's pk index.
	s := p.String()
	if !strings.Contains(s, "IndexJoin big via pk_big") {
		t.Errorf("expected index nested loops into big:\n%s", s)
	}
	if !strings.Contains(s, "SeqScan small") {
		t.Errorf("expected small as the outer input:\n%s", s)
	}
}

func TestHashJoinForUnindexedEqui(t *testing.T) {
	cat := newFakeCatalog()
	p := planFor(t, cat, "SELECT COUNT(*) FROM big b JOIN small s ON b.grp = s.k", Options{})
	if !strings.Contains(p.String(), "HashJoin") {
		t.Errorf("expected a hash join:\n%s", p.String())
	}
}

// hashJoinOf returns the hash join under a plan's projection.
func hashJoinOf(t *testing.T, p *Plan) *HashJoin {
	t.Helper()
	if pr, ok := p.Root.(*Project); ok {
		if hj, ok := pr.Input.(*HashJoin); ok {
			return hj
		}
	}
	t.Fatalf("expected Project over HashJoin:\n%s", p.String())
	return nil
}

// TestHashJoinBuildsSmallerInput: a hash join builds on the input with
// fewer estimated rows, whichever FROM order names it, and its estimate
// prices that build; equal inputs keep building on the right.
func TestHashJoinBuildsSmallerInput(t *testing.T) {
	cat := newFakeCatalog()
	var est []Cost
	for _, sql := range []string{
		"SELECT s.label, b.txt FROM big b JOIN small s ON b.grp = s.k",
		"SELECT s.label, b.txt FROM small s JOIN big b ON b.grp = s.k",
	} {
		p := planFor(t, cat, sql, Options{})
		hj := hashJoinOf(t, p)
		if !hj.BuildLeft || hj.Left.(*SeqScan).Table != "small" || !strings.Contains(p.String(), "build=left") {
			t.Errorf("%s: want the build on small:\n%s", sql, p.String())
		}
		probe, build := hj.Right.Est(), hj.Left.Est()
		if want := hashJoinCost(probe, build, hj.EstC.Rows); hj.EstC != want {
			t.Errorf("%s: EstC = %+v, want the small build's %+v", sql, hj.EstC, want)
		}
		if big := hashJoinCost(build, probe, hj.EstC.Rows); hj.EstC.Total() >= big.Total() {
			t.Errorf("%s: building on small (%v) not cheaper than on big (%v)", sql, hj.EstC.Total(), big.Total())
		}
		est = append(est, hj.EstC)
	}
	if est[0] != est[1] {
		t.Errorf("FROM order changed the estimate: %+v vs %+v", est[0], est[1])
	}

	twin := *cat.tables["small"]
	twin.Name = "twin"
	cat.tables["twin"], cat.stats["twin"] = &twin, cat.stats["small"]
	p := planFor(t, cat, "SELECT s.label, w.label FROM small s JOIN twin w ON s.k = w.k", Options{})
	if hj := hashJoinOf(t, p); hj.BuildLeft || !strings.Contains(p.String(), "build=right") {
		t.Errorf("a tie should build on the right:\n%s", p.String())
	}
}

func TestCrossJoinFallsBackToLoop(t *testing.T) {
	cat := newFakeCatalog()
	p := planFor(t, cat, "SELECT COUNT(*) FROM big, small", Options{})
	if !strings.Contains(p.String(), "LoopJoin") {
		t.Errorf("expected a loop join:\n%s", p.String())
	}
}

func TestPlanShapeNodes(t *testing.T) {
	cat := newFakeCatalog()
	p := planFor(t, cat, `SELECT grp, COUNT(*) c FROM big WHERE id > 5
		GROUP BY grp HAVING COUNT(*) > 2 ORDER BY c DESC LIMIT 3 OFFSET 1`, Options{})
	s := p.String()
	for _, node := range []string{"Limit 3 offset 1", "Sort", "Project", "Agg"} {
		if !strings.Contains(s, node) {
			t.Errorf("missing %s in:\n%s", node, s)
		}
	}
}

func TestUsedIndexesAndAttributes(t *testing.T) {
	cat := newFakeCatalog()
	p := planFor(t, cat, "SELECT txt FROM big WHERE id = 9", Options{})
	if len(p.UsedIndexes) != 1 || p.UsedIndexes[0] != "pk_big" {
		t.Errorf("UsedIndexes = %v", p.UsedIndexes)
	}
	attrs := strings.Join(p.Attributes, ",")
	for _, want := range []string{"big.id", "big.txt"} {
		if !strings.Contains(attrs, want) {
			t.Errorf("Attributes = %v, missing %s", p.Attributes, want)
		}
	}
}

func TestPlannerErrors(t *testing.T) {
	cat := newFakeCatalog()
	bad := []string{
		"SELECT x FROM missing",
		"SELECT nope FROM big",
		"SELECT b.id FROM big b, big b",                      // duplicate alias
		"SELECT grp, COUNT(*) FROM big",                      // bare column with aggregate
		"SELECT id FROM big HAVING COUNT(*) > 1 ORDER BY id", // HAVING without GROUP BY... actually allowed? no
		"SELECT DISTINCT id FROM big ORDER BY grp",           // DISTINCT + hidden order col
		"SELECT id FROM big ORDER BY 5",                      // position out of range
	}
	for _, sql := range bad {
		st, err := sqlparser.Parse(sql)
		if err != nil {
			continue // parser-level rejection also counts
		}
		if _, err := PlanSelect(st.(*sqlparser.SelectStmt), cat, Options{}); err == nil {
			t.Errorf("PlanSelect(%q) unexpectedly succeeded", sql)
		}
	}
}

func TestHavingWithGroupedAggregates(t *testing.T) {
	cat := newFakeCatalog()
	p := planFor(t, cat, "SELECT grp FROM big GROUP BY grp HAVING MAX(id) > 100", Options{})
	if !strings.Contains(p.String(), "Agg") {
		t.Errorf("missing Agg:\n%s", p.String())
	}
}

func TestOrderByHiddenColumn(t *testing.T) {
	cat := newFakeCatalog()
	p := planFor(t, cat, "SELECT txt FROM big ORDER BY grp DESC", Options{})
	s := p.String()
	if !strings.Contains(s, "Sort") {
		t.Errorf("missing sort:\n%s", s)
	}
	// Output must still be just the one visible column.
	if got := len(p.Root.Out()); got != 1 {
		t.Errorf("output cols = %d, want 1 (hidden order column stripped)", got)
	}
}

func TestParamSelectivityShapesPlan(t *testing.T) {
	cat := newFakeCatalog()
	cat.indexes = append(cat.indexes, &catalog.Index{
		Name: "ix_grp", Table: "big", Columns: []string{"grp"},
	})
	var vals []sqltypes.Value
	for i := 0; i < 10000; i++ {
		vals = append(vals, sqltypes.NewInt(int64(i%1000)))
	}
	cat.hists["big.grp"] = catalog.BuildHistogram("big", "grp", vals, 20)

	res, err := sqlparser.ParseNormalized("SELECT id FROM big WHERE grp = 77")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanSelect(res.Stmt.(*sqlparser.SelectStmt), cat, Options{Params: res.Params})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "IndexScan") {
		t.Errorf("parameterized equality did not probe index:\n%s", plan.String())
	}
}

func TestCostMonotonicity(t *testing.T) {
	// More selective predicates must not produce more expensive plans.
	cat := newFakeCatalog()
	eq := planFor(t, cat, "SELECT txt FROM big WHERE id = 1", Options{})
	scanAll := planFor(t, cat, "SELECT txt FROM big", Options{})
	if eq.Est.Total() >= scanAll.Est.Total() {
		t.Errorf("point lookup (%v) not cheaper than full scan (%v)", eq.Est.Total(), scanAll.Est.Total())
	}
	if eq.Est.Rows > scanAll.Est.Rows {
		t.Errorf("row estimates inverted: %v > %v", eq.Est.Rows, scanAll.Est.Rows)
	}
}

// leafOrds maps each leaf of a plan — scans and an index join's inner
// table — by alias to the schema ordinals it reads ("all" for nil).
func leafOrds(n Node) map[string]string {
	out := map[string]string{}
	show := func(alias string, ords []int) {
		out[alias] = "all"
		if ords != nil {
			out[alias] = fmt.Sprint(ords)
		}
	}
	var walk func(n Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *SeqScan:
			show(x.Alias, x.Ords)
		case *IndexScan:
			show(x.Alias, x.Ords)
		case *IndexJoin:
			show(x.Alias, x.Ords)
			walk(x.Left)
		case *HashJoin:
			walk(x.Left)
			walk(x.Right)
		case *LoopJoin:
			walk(x.Left)
			walk(x.Right)
		case *Agg:
			walk(x.Input)
		case *Project:
			walk(x.Input)
		case *Sort:
			walk(x.Input)
		case *Strip:
			walk(x.Input)
		case *Distinct:
			walk(x.Input)
		case *Limit:
			walk(x.Input)
		}
	}
	walk(n)
	return out
}

// TestScanColumnsPruned: every leaf reads exactly the columns some
// expression of the plan reads, SELECT * and t.* read everything, and
// the plan a write finds its rows through keeps whole rows.
func TestScanColumnsPruned(t *testing.T) {
	cat := newFakeCatalog()
	for _, c := range []struct {
		sql  string
		want map[string]string
	}{
		{"SELECT COUNT(*) FROM big", map[string]string{"big": "[]"}},
		{"SELECT a.id FROM big a JOIN big b ON a.grp = b.grp WHERE b.txt = 'x'",
			map[string]string{"a": "[0 1]", "b": "[1 2]"}},
		{"SELECT txt FROM big WHERE grp = 3", map[string]string{"big": "[1 2]"}},
		{"SELECT big.txt FROM big JOIN small ON big.id = small.k", map[string]string{"big": "[2]", "small": "[0]"}},
		{"SELECT * FROM small WHERE k = 1", map[string]string{"small": "all"}},
		{"SELECT b.* FROM big b JOIN small s ON b.grp = s.k", map[string]string{"b": "all", "s": "[0]"}},
		{"SELECT label FROM small ORDER BY k", map[string]string{"small": "all"}},
		{"SELECT DISTINCT grp FROM big WHERE txt > 'm' ORDER BY grp", map[string]string{"big": "[1 2]"}},
	} {
		p := planFor(t, cat, c.sql, Options{})
		if got := leafOrds(p.Root); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: leaves read %v, want %v\n%s", c.sql, got, c.want, p)
		}
	}

	// A parallel-safe aggregate: its scan, which the morsel workers
	// share, reads the group key and the argument.
	p := planFor(t, cat, "SELECT grp, SUM(id) FROM big GROUP BY grp", Options{})
	agg := p.Root.(*Project).Input.(*Agg)
	if scan, ok := agg.Input.(*SeqScan); !ok || !agg.ParallelSafe || fmt.Sprint(scan.Ords) != "[0 1]" {
		t.Errorf("parallel-safe aggregate over %v:\n%s", agg.Input, p)
	}

	// The statement the engine plans to find the rows of a
	// DELETE/UPDATE ... WHERE.
	del, err := sqlparser.Parse("DELETE FROM big WHERE id = 5")
	if err != nil {
		t.Fatal(err)
	}
	dml, err := PlanSelect(&sqlparser.SelectStmt{Items: []sqlparser.SelectItem{{Star: true}},
		From: []sqlparser.TableRef{{Name: "big"}}, Where: del.(*sqlparser.DeleteStmt).Where, Limit: -1}, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if leaf, ok := dml.Root.(*Project).Input.(*IndexScan); !ok || leaf.Ords != nil || len(leaf.Cols) != 3 {
		t.Errorf("a write's access path does not read whole rows:\n%s", dml)
	}
}
