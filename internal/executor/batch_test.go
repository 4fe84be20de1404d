package executor

import (
	"math"
	"testing"

	"repro/internal/sqltypes"
)

func intRows(n int) []sqltypes.Row {
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i * 2))}
	}
	return rows
}

// TestRowArenaStability verifies carved rows are never clobbered by
// later arena appends, across chunk growth boundaries.
func TestRowArenaStability(t *testing.T) {
	var arena RowArena
	var carved []sqltypes.Row
	for i := 0; i < 5000; i++ {
		carved = append(carved, arena.Combine(
			sqltypes.Row{sqltypes.NewInt(int64(i))},
			sqltypes.Row{sqltypes.NewInt(int64(-i)), sqltypes.NewText("x")}))
	}
	for i, r := range carved {
		if len(r) != 3 || r[0].I != int64(i) || r[1].I != int64(-i) || r[2].S != "x" {
			t.Fatalf("carved row %d corrupted: %v", i, r)
		}
	}
}

func TestSliceRowIterBatches(t *testing.T) {
	it := &SliceRowIter{Rows: intRows(BatchSize + 5)}
	var b Batch
	ok, err := it.NextBatch(&b)
	if err != nil || !ok || len(b.Rows) != BatchSize {
		t.Fatalf("first batch: ok=%v err=%v len=%d", ok, err, len(b.Rows))
	}
	ok, _ = it.NextBatch(&b)
	if !ok || len(b.Rows) != 5 {
		t.Fatalf("second batch: ok=%v len=%d", ok, len(b.Rows))
	}
	ok, _ = it.NextBatch(&b)
	if ok || len(b.Rows) != 0 {
		t.Fatalf("after exhaustion: ok=%v len=%d", ok, len(b.Rows))
	}
}

// TestRowArenaReset: Reset hands the current chunk out again — a
// producer's batch costs no allocation once the chunk fits it — and
// leaves rows carved from earlier chunks alone.
func TestRowArenaReset(t *testing.T) {
	var arena RowArena
	old := arena.Clone(sqltypes.Row{sqltypes.NewInt(7)}) // the first chunk is exactly this row
	fill := func() {
		arena.Reset()
		for i := 0; i < 100; i++ {
			arena.Combine(sqltypes.Row{sqltypes.NewInt(int64(i))}, sqltypes.Row{sqltypes.NewInt(1)})
		}
	}
	for i := 0; i < 8; i++ {
		fill() // chunks double until one holds a whole batch
	}
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Errorf("a batch into a reset arena allocates %.0f times", allocs)
	}
	if old[0].I != 7 {
		t.Errorf("row of an earlier chunk overwritten: %v", old)
	}
}

// TestRowArenaResetReusesChunks: a producer batch that spans several
// chunks — a join's output rows are wide — is carved, after the first
// batch, out of the chunks that batch made, with no allocation.
func TestRowArenaResetReusesChunks(t *testing.T) {
	var arena RowArena
	wide := make(sqltypes.Row, 12)
	var first sqltypes.Row
	fill := func() {
		arena.Reset()
		for i := 0; i < BatchSize; i++ {
			wide[0] = sqltypes.NewInt(int64(i))
			if r := arena.Clone(wide); i == 0 {
				first = r
			}
		}
	}
	fill()
	if len(arena.chunks) < 2 {
		t.Fatalf("a batch of %d 12-value rows fits one chunk", BatchSize)
	}
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Errorf("a reset batch allocates %.0f times", allocs)
	}
	if first[0].I != 0 || len(first) != 12 {
		t.Errorf("first row of the last batch: %v", first)
	}
}

// TestKeyTable: entries are numbered in first-arrival order, keys are
// equal exactly when sqltypes.Compare says so, and the table keeps
// working past the size it was made for.
func TestKeyTable(t *testing.T) {
	kt := newKeyTable(2, 0)
	key := func(a, b sqltypes.Value) []sqltypes.Value { return []sqltypes.Value{a, b} }
	const n = 5000
	for i := 0; i < n; i++ {
		e, fresh := kt.insert(key(sqltypes.NewInt(int64(i%(n/2))), sqltypes.NewText("k")))
		if want := int32(i % (n / 2)); e != want || fresh != (i < n/2) {
			t.Fatalf("insert %d: entry %d fresh %v, want %d", i, e, fresh, want)
		}
	}
	for _, c := range []struct {
		a    sqltypes.Value
		want int32
	}{
		{sqltypes.NewFloat(7), 7},
		{sqltypes.NewFloat(math.Copysign(0, -1)), 0},
		{sqltypes.NewFloat(7.5), -1},
		{sqltypes.NewText("7"), -1},
		{sqltypes.NullValue(), -1},
	} {
		if e := kt.find(key(c.a, sqltypes.NewText("k"))); e != c.want {
			t.Errorf("find(%v) = %d, want %d", c.a, e, c.want)
		}
	}
	if kt.len() != n/2 || kt.key(9)[0].I != 9 {
		t.Errorf("%d entries, entry 9 is %v", kt.len(), kt.key(9))
	}
}
