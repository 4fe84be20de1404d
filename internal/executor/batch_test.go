package executor

import (
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
