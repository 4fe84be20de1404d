package executor

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// memStorage is an in-memory executor.Storage for direct operator
// tests. Index entries are sorted lazily per call.
type memStorage struct {
	tables  map[string][]sqltypes.Row
	indexes map[string]memIndex // name -> index over a table
	primary map[string]memIndex // table -> primary index
}

type memIndex struct {
	table string
	cols  []int // column offsets forming the key
}

func (m *memStorage) ScanTable(name string, cols []int, sv *Sieve) (RowBatchIter, error) {
	rows, ok := m.tables[name]
	if !ok {
		return nil, fmt.Errorf("mem: no table %q", name)
	}
	return &SliceRowIter{Rows: narrow(rows, cols), Sieve: sv}, nil
}

// narrow projects rows onto the columns cols (nil: every column).
func narrow(rows []sqltypes.Row, cols []int) []sqltypes.Row {
	if cols == nil {
		return rows
	}
	out := make([]sqltypes.Row, len(rows))
	for i, row := range rows {
		for _, c := range cols {
			out[i] = append(out[i], row[c])
		}
	}
	return out
}

func (m *memStorage) rangeOver(idx memIndex, lo, hi []byte, cols []int, sv *Sieve) (RowBatchIter, error) {
	var out []sqltypes.Row
	for _, row := range m.tables[idx.table] {
		var key []byte
		for _, c := range idx.cols {
			key = sqltypes.EncodeKey(key, row[c])
		}
		if bytes.Compare(key, lo) >= 0 && bytes.Compare(key, hi) < 0 {
			out = append(out, row)
		}
	}
	return &SliceRowIter{Rows: narrow(out, cols), Sieve: sv}, nil
}

func (m *memStorage) IndexRange(table, index string, lo, hi []byte, cols []int, sv *Sieve) (RowBatchIter, error) {
	idx, ok := m.indexes[index]
	if !ok {
		return nil, fmt.Errorf("mem: no index %q", index)
	}
	return m.rangeOver(idx, lo, hi, cols, sv)
}

func (m *memStorage) PrimaryRange(table string, lo, hi []byte, cols []int, sv *Sieve) (RowBatchIter, error) {
	idx, ok := m.primary[table]
	if !ok {
		return nil, fmt.Errorf("mem: no primary on %q", table)
	}
	return m.rangeOver(idx, lo, hi, cols, sv)
}

func newMemStorage() *memStorage {
	m := &memStorage{
		tables:  map[string][]sqltypes.Row{},
		indexes: map[string]memIndex{},
		primary: map[string]memIndex{},
	}
	// users(id, name, dept)
	for i := 0; i < 100; i++ {
		m.tables["users"] = append(m.tables["users"], sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewText(fmt.Sprintf("user%02d", i)),
			sqltypes.NewInt(int64(i % 5)),
		})
	}
	// depts(dept, title)
	for i := 0; i < 5; i++ {
		m.tables["depts"] = append(m.tables["depts"], sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewText(fmt.Sprintf("dept-%d", i)),
		})
	}
	m.primary["users"] = memIndex{table: "users", cols: []int{0}}
	m.indexes["ix_dept"] = memIndex{table: "users", cols: []int{2}}
	return m
}

func usersCols() []optimizer.OutCol {
	return []optimizer.OutCol{
		{Table: "u", Name: "id", Type: sqltypes.Int},
		{Table: "u", Name: "name", Type: sqltypes.Text},
		{Table: "u", Name: "dept", Type: sqltypes.Int},
	}
}

func deptsCols() []optimizer.OutCol {
	return []optimizer.OutCol{
		{Table: "d", Name: "dept", Type: sqltypes.Int},
		{Table: "d", Name: "title", Type: sqltypes.Text},
	}
}

func whereOf(t *testing.T, cond string) sqlparser.Expr {
	t.Helper()
	st, err := sqlparser.Parse("SELECT * FROM x WHERE " + cond)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*sqlparser.SelectStmt).Where
}

func runPlan(t *testing.T, root optimizer.Node, params []sqltypes.Value) []sqltypes.Row {
	t.Helper()
	rows, tuples := runOn(t, newMemStorage(), root, params)
	if tuples == 0 && len(rows) > 0 {
		t.Error("actual-CPU counter not advanced")
	}
	return rows
}

// runOn runs a plan over st and returns its rows and tuple count.
func runOn(t *testing.T, st Storage, root optimizer.Node, params []sqltypes.Value) ([]sqltypes.Row, int64) {
	t.Helper()
	prep, err := Compile(&optimizer.Plan{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Params: params}
	it, err := prep.Run(st, ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	return rows, ctx.Tuples
}

func TestSeqScanWithFilter(t *testing.T) {
	scan := &optimizer.SeqScan{
		Table: "users", Alias: "u", Cols: usersCols(),
		Filter: whereOf(t, "dept = 3"),
	}
	rows := runPlan(t, scan, nil)
	if len(rows) != 20 {
		t.Fatalf("rows = %d, want 20", len(rows))
	}
	for _, r := range rows {
		if r[2].I != 3 {
			t.Errorf("filter leak: %v", r)
		}
	}
}

func TestIndexScanEqAndRange(t *testing.T) {
	eq := &optimizer.IndexScan{
		Table: "users", Alias: "u", Index: "ix_dept", Cols: usersCols(),
		Eq: []sqlparser.Expr{sqlparser.Literal{Val: sqltypes.NewInt(2)}},
	}
	rows := runPlan(t, eq, nil)
	if len(rows) != 20 {
		t.Fatalf("eq probe rows = %d", len(rows))
	}

	// Range on the primary: 10 <= id <= 19.
	rng := &optimizer.IndexScan{
		Table: "users", Alias: "u", Primary: true, Cols: usersCols(),
		Lo: sqlparser.Literal{Val: sqltypes.NewInt(10)}, LoIncl: true,
		Hi: sqlparser.Literal{Val: sqltypes.NewInt(19)}, HiIncl: true,
	}
	rows = runPlan(t, rng, nil)
	if len(rows) != 10 {
		t.Fatalf("range rows = %d, want 10", len(rows))
	}

	// Exclusive bounds.
	rng.LoIncl, rng.HiIncl = false, false
	rows = runPlan(t, rng, nil)
	if len(rows) != 8 {
		t.Fatalf("exclusive range rows = %d, want 8", len(rows))
	}

	// NULL probe matches nothing.
	eq.Eq = []sqlparser.Expr{sqlparser.Literal{Val: sqltypes.NullValue()}}
	rows = runPlan(t, eq, nil)
	if len(rows) != 0 {
		t.Fatalf("NULL probe rows = %d", len(rows))
	}
}

func joinTree(t *testing.T) (*optimizer.SeqScan, *optimizer.SeqScan) {
	left := &optimizer.SeqScan{Table: "users", Alias: "u", Cols: usersCols()}
	right := &optimizer.SeqScan{Table: "depts", Alias: "d", Cols: deptsCols()}
	return left, right
}

func TestHashJoin(t *testing.T) {
	left, right := joinTree(t)
	j := &optimizer.HashJoin{
		Left: left, Right: right,
		LeftKeys:  []sqlparser.Expr{sqlparser.ColumnRef{Table: "u", Name: "dept"}},
		RightKeys: []sqlparser.Expr{sqlparser.ColumnRef{Table: "d", Name: "dept"}},
	}
	rows := runPlan(t, j, nil)
	if len(rows) != 100 {
		t.Fatalf("join rows = %d, want 100", len(rows))
	}
	if len(rows[0]) != 5 {
		t.Fatalf("combined width = %d", len(rows[0]))
	}
	// Residual condition filters pairs.
	j.Residual = whereOf(t, "u.id < 10")
	rows = runPlan(t, j, nil)
	if len(rows) != 10 {
		t.Fatalf("residual rows = %d", len(rows))
	}

	// Building on the left yields the same rows, columns and tuple count:
	// a scan of each side, one tuple per build row, per probe row and per
	// pair. NULL keys on either side match nothing.
	st := newMemStorage()
	st.tables["users"] = append(st.tables["users"],
		sqltypes.Row{sqltypes.NewInt(100), sqltypes.NewText("user100"), sqltypes.NullValue()})
	st.tables["depts"] = append(st.tables["depts"], sqltypes.Row{sqltypes.NullValue(), sqltypes.NewText("dept-null")})
	for _, tc := range []struct {
		residual string
		rows     int
	}{
		{"", 100},
		{"u.id < 10 AND d.title <> 'dept-3'", 8}, // users 3 and 8 are in dept 3
	} {
		j.Residual = nil
		if tc.residual != "" {
			j.Residual = whereOf(t, tc.residual)
		}
		var canon [2][]string
		var tuples [2]int64
		for i, buildLeft := range []bool{false, true} {
			j.BuildLeft = buildLeft
			rows, n := runOn(t, st, j, nil)
			if len(rows) != tc.rows {
				t.Fatalf("build left %v, residual %q: %d rows, want %d", buildLeft, tc.residual, len(rows), tc.rows)
			}
			for _, r := range rows {
				if r[2].IsNull() || r[2].I != r[3].I || r[1].S != fmt.Sprintf("user%02d", r[0].I) ||
					r[4].S != fmt.Sprintf("dept-%d", r[3].I) {
					t.Fatalf("build left %v: row %v is not u.* then d.* with equal depts", buildLeft, r)
				}
				canon[i] = append(canon[i], string(sqltypes.EncodeKey(nil, r...)))
			}
			sort.Strings(canon[i])
			tuples[i] = n
		}
		if !slices.Equal(canon[0], canon[1]) || tuples[0] != tuples[1] {
			t.Errorf("residual %q: build left differs from build right (tuples %d vs %d)", tc.residual, tuples[1], tuples[0])
		}
	}
}

func TestLoopJoinCross(t *testing.T) {
	left, right := joinTree(t)
	j := &optimizer.LoopJoin{Left: left, Right: right}
	rows := runPlan(t, j, nil)
	if len(rows) != 500 {
		t.Fatalf("cross rows = %d", len(rows))
	}
	j.Cond = whereOf(t, "u.dept = d.dept")
	rows = runPlan(t, j, nil)
	if len(rows) != 100 {
		t.Fatalf("theta rows = %d", len(rows))
	}
}

func TestIndexJoin(t *testing.T) {
	right := &optimizer.SeqScan{Table: "depts", Alias: "d", Cols: deptsCols()}
	j := &optimizer.IndexJoin{
		Left: right, Table: "users", Alias: "u", Index: "ix_dept", Cols: usersCols(),
		LeftKeys: []sqlparser.Expr{sqlparser.ColumnRef{Table: "d", Name: "dept"}},
	}
	rows := runPlan(t, j, nil)
	if len(rows) != 100 {
		t.Fatalf("index join rows = %d", len(rows))
	}
	if len(rows[0]) != 5 {
		t.Fatalf("width = %d", len(rows[0]))
	}
}

func TestAggregationOperators(t *testing.T) {
	st, err := sqlparser.Parse("SELECT dept, COUNT(*), SUM(id), MIN(name), MAX(id), AVG(id) FROM users u GROUP BY dept")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := optimizer.PlanSelect(st.(*sqlparser.SelectStmt), usersCatalog{}, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := runPlan(t, plan.Root, nil)
	if len(rows) != 5 {
		t.Fatalf("groups = %d", len(rows))
	}
	var totalCount int64
	for _, r := range rows {
		// Layout: [dept, COUNT, SUM, MIN(name), MAX(id), AVG(id)].
		totalCount += r[1].I
		if !strings.HasPrefix(r[3].S, "user") {
			t.Errorf("MIN name = %v", r[3])
		}
		if r[4].I < 95 {
			t.Errorf("MAX id = %v", r[4])
		}
		if r[5].T != sqltypes.Float {
			t.Errorf("AVG type = %v", r[5].T)
		}
	}
	if totalCount != 100 {
		t.Errorf("counts sum to %d", totalCount)
	}
}

// usersCatalog is the optimizer's view of memStorage's users table, for
// plans that PlanSelect builds.
type usersCatalog struct{}

func (usersCatalog) Table(name string) *catalog.Table {
	if name != "users" {
		return nil
	}
	var cols []sqltypes.Column
	for _, c := range usersCols() {
		cols = append(cols, sqltypes.Column{Name: c.Name, Type: c.Type})
	}
	return &catalog.Table{Name: "users", Schema: sqltypes.NewSchema(cols...), Rows: 100, MainPages: 1}
}

func (usersCatalog) TableIndexes(string, bool) []*catalog.Index  { return nil }
func (usersCatalog) Histogram(string, string) *catalog.Histogram { return nil }
func (usersCatalog) TableStats(string) (optimizer.TableStats, bool) {
	return optimizer.TableStats{}, false
}
func (usersCatalog) IndexStats(string) (optimizer.IndexStats, bool) {
	return optimizer.IndexStats{}, false
}

func TestSortDistinctLimitStrip(t *testing.T) {
	scan := &optimizer.SeqScan{Table: "users", Alias: "u", Cols: usersCols()}
	proj := &optimizer.Project{
		Input: scan,
		Exprs: []sqlparser.Expr{
			sqlparser.ColumnRef{Table: "u", Name: "dept"},
			sqlparser.ColumnRef{Table: "u", Name: "id"},
		},
		Names: []optimizer.OutCol{
			{Name: "dept", Type: sqltypes.Int},
			{Name: "id", Type: sqltypes.Int},
		},
	}
	dist := &optimizer.Distinct{Input: &optimizer.Project{
		Input: scan,
		Exprs: []sqlparser.Expr{sqlparser.ColumnRef{Table: "u", Name: "dept"}},
		Names: []optimizer.OutCol{{Name: "dept", Type: sqltypes.Int}},
	}}
	rows := runPlan(t, dist, nil)
	if len(rows) != 5 {
		t.Fatalf("distinct rows = %d", len(rows))
	}

	sorted := &optimizer.Sort{Input: proj, Keys: []optimizer.SortKey{{Col: 0, Desc: true}, {Col: 1}}}
	rows = runPlan(t, sorted, nil)
	if rows[0][0].I != 4 || rows[0][1].I != 4 {
		t.Errorf("sort head = %v", rows[0])
	}

	limited := &optimizer.Limit{Input: sorted, N: 3, Offset: 2}
	rows = runPlan(t, limited, nil)
	if len(rows) != 3 || rows[0][1].I != 14 {
		t.Errorf("limit rows = %v", rows)
	}

	stripped := &optimizer.Strip{Input: sorted, Keep: 1}
	rows = runPlan(t, stripped, nil)
	if len(rows[0]) != 1 {
		t.Errorf("strip width = %d", len(rows[0]))
	}
}

func TestParamsInProbe(t *testing.T) {
	eq := &optimizer.IndexScan{
		Table: "users", Alias: "u", Primary: true, Cols: usersCols(),
		Eq: []sqlparser.Expr{sqlparser.Param{Idx: 0}},
	}
	rows := runPlan(t, eq, []sqltypes.Value{sqltypes.NewInt(42)})
	if len(rows) != 1 || rows[0][0].I != 42 {
		t.Fatalf("param probe rows = %v", rows)
	}
}

func TestCompileErrors(t *testing.T) {
	// A filter referencing an unknown column must fail at compile time.
	scan := &optimizer.SeqScan{
		Table: "users", Alias: "u", Cols: usersCols(),
		Filter: whereOf(t, "bogus = 1"),
	}
	if _, err := Compile(&optimizer.Plan{Root: scan}); err == nil {
		t.Fatal("unknown column compiled")
	}
}

func TestStorageErrorsPropagate(t *testing.T) {
	scan := &optimizer.SeqScan{Table: "missing", Alias: "m", Cols: usersCols()}
	prep, err := Compile(&optimizer.Plan{Root: scan})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Run(newMemStorage(), &Ctx{}); err == nil {
		t.Fatal("missing table did not error")
	}
}

// trackingStorage counts the storage iterators that are open, so a test
// can check that a statement closed every one it opened, and the
// batches read from each table.
type trackingStorage struct {
	*memStorage
	open    int
	batches map[string]int
}

type trackedIter struct {
	RowBatchIter
	st     *trackingStorage
	table  string
	closed bool
}

func (it *trackedIter) NextBatch(b *Batch) (bool, error) {
	it.st.batches[it.table]++
	return it.RowBatchIter.NextBatch(b)
}

func (it *trackedIter) Close() error {
	if !it.closed {
		it.closed = true
		it.st.open--
	}
	return it.RowBatchIter.Close()
}

func (s *trackingStorage) track(table string, it RowBatchIter, err error) (RowBatchIter, error) {
	if err != nil {
		return nil, err
	}
	s.open++
	return &trackedIter{RowBatchIter: it, st: s, table: table}, nil
}

func (s *trackingStorage) ScanTable(name string, cols []int, sv *Sieve) (RowBatchIter, error) {
	it, err := s.memStorage.ScanTable(name, cols, sv)
	return s.track(name, it, err)
}

func (s *trackingStorage) IndexRange(table, index string, lo, hi []byte, cols []int, sv *Sieve) (RowBatchIter, error) {
	it, err := s.memStorage.IndexRange(table, index, lo, hi, cols, sv)
	return s.track(table, it, err)
}

func (s *trackingStorage) PrimaryRange(table string, lo, hi []byte, cols []int, sv *Sieve) (RowBatchIter, error) {
	it, err := s.memStorage.PrimaryRange(table, lo, hi, cols, sv)
	return s.track(table, it, err)
}

// TestBatchBoundariesAndClose runs the operators that keep state across
// NextBatch calls — Limit, Distinct, the join probes — over inputs and
// outputs several batches long, and checks that every path out of a
// statement (exhaustion, a LIMIT met mid-input, an expression error
// mid-input, a failing open) closes every storage iterator it opened.
func TestBatchBoundariesAndClose(t *testing.T) {
	st := &trackingStorage{memStorage: newMemStorage(), batches: map[string]int{}}
	const n = 3*BatchSize + 7
	for i := 0; i < n; i++ {
		st.tables["big"] = append(st.tables["big"], sqltypes.Row{
			sqltypes.NewInt(int64(i)), sqltypes.NewText("b"), sqltypes.NewInt(int64(i % 5)),
		})
	}
	bigCols := []optimizer.OutCol{
		{Table: "b", Name: "id", Type: sqltypes.Int},
		{Table: "b", Name: "name", Type: sqltypes.Text},
		{Table: "b", Name: "dept", Type: sqltypes.Int},
	}
	big := &optimizer.SeqScan{Table: "big", Alias: "b", Cols: bigCols}
	depts := &optimizer.SeqScan{Table: "depts", Alias: "d", Cols: deptsCols()}
	users := &optimizer.SeqScan{Table: "users", Alias: "u", Cols: usersCols()}
	col := func(table, name string) sqlparser.Expr { return sqlparser.ColumnRef{Table: table, Name: name} }
	// Every big row pairs with all 5 depts: 5n rows, batches cut mid-pair.
	cross := &optimizer.LoopJoin{Left: big, Right: depts}
	// Every big row pairs with the 20 users of its dept.
	hash := &optimizer.HashJoin{Left: big, Right: users,
		LeftKeys: []sqlparser.Expr{col("b", "dept")}, RightKeys: []sqlparser.Expr{col("u", "dept")}}
	// The same join written users-first, built on users: rows are u ‖ b,
	// each big row meeting its users in arrival order.
	hashLeft := &optimizer.HashJoin{Left: users, Right: big, BuildLeft: true,
		LeftKeys: []sqlparser.Expr{col("u", "dept")}, RightKeys: []sqlparser.Expr{col("b", "dept")}}
	index := &optimizer.IndexJoin{Left: big, Table: "users", Alias: "u", Index: "ix_dept",
		Cols: usersCols(), LeftKeys: []sqlparser.Expr{col("b", "dept")}}
	divide := func(in optimizer.Node) optimizer.Node { // fails at id 2000, in the second batch
		return &optimizer.Project{Input: in,
			Exprs: []sqlparser.Expr{whereOf(t, "1 / (b.id - 2000) = 0")},
			Names: []optimizer.OutCol{{Name: "q", Type: sqltypes.Int}}}
	}

	for _, tc := range []struct {
		name       string
		root       optimizer.Node
		rows       int   // -1: NextBatch must fail; -2: open must fail
		first      int64 // id in the first row's first column, when rows > 0
		tuples     int64 // 0: not checked
		bigBatches int   // batches read from big; 0: not checked
	}{
		{name: "cross", root: cross, rows: 5 * n, tuples: (n + 5) + n + 5*n},         // scans, outer rows, pairs
		{name: "hash", root: hash, rows: 20 * n, tuples: (n + 100) + 100 + n + 20*n}, // scans, build, outer rows, pairs
		{name: "hash build left", root: hashLeft, rows: 20 * n, tuples: (n + 100) + 100 + n + 20*n},
		{name: "index", root: index, rows: 20 * n, tuples: n + n + 20*n},
		{name: "limit mid-batch", root: &optimizer.Limit{Input: big, N: 10, Offset: 2*BatchSize - 3}, rows: 10, first: 2*BatchSize - 3},
		{name: "limit over cross", root: &optimizer.Limit{Input: cross, N: BatchSize + 1, Offset: 5*BatchSize + 2}, rows: BatchSize + 1, first: BatchSize},
		{name: "limit over hash", root: &optimizer.Limit{Input: hash, N: 3, Offset: 20 * 70}, rows: 3, first: 70},
		// Big row 70 (dept 0) meets users 0, 5, ..., 95: the 8th is 35.
		// Every pair it needs comes from big's first batch.
		{name: "limit over hash build left", root: &optimizer.Limit{Input: hashLeft, N: 3, Offset: 20*70 + 7},
			rows: 3, first: 35, bigBatches: 1},
		{name: "limit over index", root: &optimizer.Limit{Input: index, N: 3, Offset: 20*70 + 19}, rows: 3, first: 70},
		{name: "offset past the end", root: &optimizer.Limit{Input: big, N: 5, Offset: n}, rows: 0},
		{name: "offset only", root: &optimizer.Limit{Input: big, N: -1, Offset: n - 2}, rows: 2, first: n - 2},
		{name: "distinct", root: &optimizer.Distinct{Input: &optimizer.Project{Input: big,
			Exprs: []sqlparser.Expr{col("b", "dept")}, Names: []optimizer.OutCol{{Name: "dept", Type: sqltypes.Int}}}}, rows: 5},
		{name: "error mid-scan", root: divide(big), rows: -1},
		{name: "error above a join", root: divide(hash), rows: -1},
		{name: "error inside agg", root: &optimizer.Agg{Input: divide(big),
			Aggs: []optimizer.AggSpec{{Func: "COUNT", Star: true}}}, rows: -2},
		{name: "probe side fails to open", root: &optimizer.HashJoin{
			Left: &optimizer.SeqScan{Table: "missing", Alias: "b", Cols: bigCols}, Right: users,
			LeftKeys: []sqlparser.Expr{col("b", "dept")}, RightKeys: []sqlparser.Expr{col("u", "dept")}}, rows: -2},
		{name: "build side fails to open", root: &optimizer.HashJoin{
			Left: big, Right: &optimizer.SeqScan{Table: "missing", Alias: "u", Cols: usersCols()},
			LeftKeys: []sqlparser.Expr{col("b", "dept")}, RightKeys: []sqlparser.Expr{col("u", "dept")}}, rows: -2},
		{name: "build left: probe side fails to open", root: &optimizer.HashJoin{
			Left: users, Right: &optimizer.SeqScan{Table: "missing", Alias: "b", Cols: bigCols}, BuildLeft: true,
			LeftKeys: []sqlparser.Expr{col("u", "dept")}, RightKeys: []sqlparser.Expr{col("b", "dept")}}, rows: -2},
		{name: "build left: build side fails to open", root: &optimizer.HashJoin{
			Left: &optimizer.SeqScan{Table: "missing", Alias: "u", Cols: usersCols()}, Right: big, BuildLeft: true,
			LeftKeys: []sqlparser.Expr{col("u", "dept")}, RightKeys: []sqlparser.Expr{col("b", "dept")}}, rows: -2},
		{name: "inner index missing", root: &optimizer.IndexJoin{Left: big, Table: "users", Alias: "u", Index: "nope",
			Cols: usersCols(), LeftKeys: []sqlparser.Expr{col("b", "dept")}}, rows: -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prep, err := Compile(&optimizer.Plan{Root: tc.root})
			if err != nil {
				t.Fatal(err)
			}
			ctx := &Ctx{}
			clear(st.batches)
			it, err := prep.Run(st, ctx)
			if (err != nil) != (tc.rows == -2) {
				t.Fatalf("open: err = %v", err)
			}
			if err == nil {
				rows, err := Collect(it)
				switch {
				case (err != nil) != (tc.rows == -1):
					t.Fatalf("collect: err = %v", err)
				case err == nil && len(rows) != tc.rows:
					t.Fatalf("%d rows, want %d", len(rows), tc.rows)
				case len(rows) > 0 && rows[0][0].I != tc.first:
					t.Errorf("first row %v, want first id %d", rows[0], tc.first)
				}
				if tc.tuples != 0 && ctx.Tuples != tc.tuples {
					t.Errorf("tuples = %d, want %d", ctx.Tuples, tc.tuples)
				}
				if tc.bigBatches != 0 && st.batches["big"] != tc.bigBatches {
					t.Errorf("%d batches read from big, want %d", st.batches["big"], tc.bigBatches)
				}
			}
			if st.open != 0 {
				t.Fatalf("%d storage iterators left open", st.open)
			}
		})
	}
}
