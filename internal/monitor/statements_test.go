package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sqlparser"
)

type testShape struct {
	kind                   string
	tables, attrs, indexes []string
}

// testShapes is a mixed population of statement shapes: selects over one
// and several tables sharing objects with one another, writes that
// reference a table only, and a statement that references nothing.
var testShapes = []testShape{
	{"SELECT", []string{"protein"}, []string{"protein.nref_id"}, []string{"protein.primary"}},
	{"SELECT", []string{"protein", "organism"}, []string{"protein.nref_id", "organism.nref_id", "organism.organism_name"}, []string{"protein.primary", "organism_nref"}},
	{"SELECT", []string{"protein", "taxonomy", "source"}, []string{"protein.length", "taxonomy.rank", "source.release_no", "protein.nref_id"}, nil},
	{"SELECT", []string{"Protein"}, []string{"protein.length"}, []string{"ix_len"}}, // names count as written
	{"UPDATE", []string{"protein"}, nil, nil},
	{"INSERT", []string{"source"}, nil, nil},
	{"SET", nil, nil, nil},
}

// cachedRecord runs one execution the way the engine runs a cached
// statement: whatever the text, it counts in the cell's Shape.
func cachedRecord(m *Monitor, text, kind string, cell *atomic.Pointer[Shape], lane int64) {
	h := m.StartStatement(text)
	h.Cached(kind, cell, lane)
	h.Finish(1, 0, 1, nil)
}

// statementRows strips the clock from a statement snapshot.
func statementRows(m *Monitor) [][4]any {
	var rows [][4]any
	for _, si := range m.SnapshotStatements() {
		rows = append(rows, [4]any{si.Hash, si.Text, si.Kind, si.Frequency})
		if si.Lat.Total() != si.Frequency {
			panic(fmt.Sprintf("statement %d: histogram total %d, frequency %d", si.Hash, si.Lat.Total(), si.Frequency))
		}
	}
	return rows
}

// Counting through Shapes equals counting name by name. One monitor is
// fed every execution through the slow path (digest, parser and
// optimizer lists), the other through published Shapes — published
// again mid-stream as the engine does after it evicted a prepared
// statement or DDL dropped its cache — and both must serve the same
// ima_statements, ima_references and ima_tables / ima_attributes /
// ima_indexes rows.
func TestShapeCountsEqualPerNameCounts(t *testing.T) {
	byName := New(Config{})
	byShape := New(Config{Shards: 4})
	cells := make([]atomic.Pointer[Shape], len(testShapes))
	text := func(i int) string { return fmt.Sprintf("%s #%d", testShapes[i].kind, i) }
	publish := func(i int) {
		sh := testShapes[i]
		cells[i].Store(byShape.Publish(uint64(100+i), text(i), sh.kind, sh.tables, sh.attrs, sh.indexes, Estimates{}))
	}
	r := rand.New(rand.NewSource(17))
	for n := 0; n < 5000; n++ {
		i := r.Intn(len(testShapes))
		sh := testShapes[i]
		lit := fmt.Sprintf("%s literal %d", text(i), r.Intn(40))
		if cells[i].Load() == nil {
			// First of its shape: the sample text is what both keep.
			lit = text(i)
			publish(i)
		}

		h := byName.StartStatement(lit)
		h.Parsed(sh.kind, sh.tables)
		h.Keyed(uint64(100 + i))
		h.Optimized(1, 1, 1, sh.attrs, sh.indexes, 0)
		h.Finish(1, 0, 1, nil)

		if n%250 == 100 {
			prev := cells[i].Load()
			publish(i) // the prepared cache dropped the entry and built it again
			if cells[i].Load() != prev {
				t.Fatalf("shape %d: publishing the same objects again made a new Shape", i)
			}
		}
		cachedRecord(byShape, lit, sh.kind, &cells[i], int64(n))
	}

	if got, want := statementRows(byShape), statementRows(byName); !reflect.DeepEqual(got, want) {
		t.Errorf("statements differ:\nby shape: %v\nby name:  %v", got, want)
	}
	wt, wa, wi := byName.SnapshotFrequencies()
	gt, ga, gi := byShape.SnapshotFrequencies()
	if !reflect.DeepEqual(gt, wt) || !reflect.DeepEqual(ga, wa) || !reflect.DeepEqual(gi, wi) {
		t.Errorf("frequencies differ:\nby shape: %v %v %v\nby name:  %v %v %v", gt, ga, gi, wt, wa, wi)
	}
	if got, want := byShape.SnapshotReferences(), byName.SnapshotReferences(); !reflect.DeepEqual(got, want) {
		t.Errorf("references differ: %d vs %d rows", len(got), len(want))
	}
}

// A shape published again with other objects — DDL changed its plan —
// keeps its statement entry, frequency and histogram; executions count
// against the objects of the plan that ran them, whichever Shape a
// session still holds.
func TestRepublishWithNewObjectsKeepsTheEntry(t *testing.T) {
	m := New(Config{})
	var old, cur atomic.Pointer[Shape]
	old.Store(m.Publish(7, "SELECT a FROM t WHERE a = 1", "SELECT", []string{"t"}, []string{"t.a"}, nil, Estimates{}))
	for i := 0; i < 5; i++ {
		cachedRecord(m, "SELECT a FROM t WHERE a = 2", "SELECT", &old, 0)
	}
	cur.Store(m.Publish(7, "SELECT a FROM t WHERE a = 3", "SELECT", []string{"t"}, []string{"t.a"}, []string{"t_a"}, Estimates{}))
	if cur.Load() == old.Load() {
		t.Fatal("other objects, same Shape")
	}
	for i := 0; i < 3; i++ {
		cachedRecord(m, "SELECT a FROM t WHERE a = 4", "SELECT", &cur, 0)
	}
	// A session that prepared before the DDL finishes on the old plan.
	stale := old.Load()
	var staleCell atomic.Pointer[Shape]
	staleCell.Store(stale)
	cachedRecord(m, "SELECT a FROM t WHERE a = 5", "SELECT", &staleCell, 0)

	st := m.SnapshotStatements()
	if len(st) != 1 || st[0].Frequency != 9 || st[0].Text != "SELECT a FROM t WHERE a = 1" || st[0].Lat.Total() != 9 {
		t.Fatalf("statements = %+v, want one entry of frequency 9 under its first text", st)
	}
	tf, af, xf := m.SnapshotFrequencies()
	if tf["t"] != 9 || af["t.a"] != 9 || xf["t_a"] != 3 {
		t.Errorf("frequencies %v %v %v, want t=9 t.a=9 t_a=3", tf, af, xf)
	}
	if got := m.TotalStatements(); got != 9 || m.EvictedStatements() != 0 {
		t.Errorf("total %d, evicted %d", got, m.EvictedStatements())
	}
}

// N executions of a cached shape leave the statement table alone — no
// lookup, no insert, no eviction, nothing parked or dropped — and
// allocate nothing: their costs add up in the Shape, which the workload
// relation reports as one row.
func TestCachedFinishTouchesNoTable(t *testing.T) {
	m := New(Config{})
	var cell atomic.Pointer[Shape]
	cell.Store(m.Publish(1, "SELECT a FROM t WHERE a = 1", "SELECT", []string{"t"}, []string{"t.a"}, []string{"t_a"}, Estimates{10, 5, 100}))
	l0, i0, e0 := m.TableOps()
	run := func() {
		h := m.StartStatement("SELECT a FROM t WHERE a = 2")
		h.Cached("SELECT", &cell, 3)
		h.Optimized(10, 5, 100, nil, nil, 0)
		if h.Profiled() {
			t.Fatal("profiled with an empty flag set")
		}
		h.Finish(120, 7, 100, nil)
		h.FlushWaits()
	}
	const n = 10000
	if allocs := testing.AllocsPerRun(n-1, run); allocs != 0 {
		t.Errorf("cached record path allocates %.1f/op, want 0", allocs)
	}
	if l, i, e := m.TableOps(); l != l0 || i != i0 || e != e0 {
		t.Errorf("table ops moved by %d lookups, %d inserts, %d evictions over %d cached executions", l-l0, i-i0, e-e0, n)
	}
	if m.WorkloadDepth() != 0 || m.WorkloadDropped() != 0 {
		t.Errorf("depth %d, dropped %d after %d cached executions, want none", m.WorkloadDepth(), m.WorkloadDropped(), n)
	}
	st := m.SnapshotStatements()
	if len(st) != 1 || st[0].Frequency != n {
		t.Fatalf("statements = %+v", st)
	}
	if tf, af, xf := m.SnapshotFrequencies(); tf["t"] != n || af["t.a"] != n || xf["t_a"] != n {
		t.Errorf("frequencies after %d executions: %v %v %v", n, tf, af, xf)
	}
	if got := m.TotalStatements(); got != n {
		t.Errorf("TotalStatements = %d, want %d", got, n)
	}
	live := m.SnapshotWorkload() // reads, does not take
	w := drain(m)
	if len(w) != 1 || len(live) != 1 || live[0] != w[0] {
		t.Fatalf("snapshot %+v, drain %+v: want the same single entry", live, w)
	}
	if e := w[0]; e.Hash != 1 || e.Executions != n || e.ExecCPU != 120*n || e.ExecIO != 7*n || e.Rows != 100*n ||
		e.EstCPU != 10*n || e.EstIO != 5*n || e.EstRows != 100*n || e.Errors != 0 || e.OptTime != 0 ||
		e.Wall <= 0 || e.MonNanos <= 0 || e.MonNanos != int64(m.TotalMonitorTime()) || e.Start.IsZero() {
		t.Errorf("drained entry %+v (monitor time %d)", e, m.TotalMonitorTime())
	}
	if again := drain(m); len(again) != 0 {
		t.Errorf("second drain returned %+v", again)
	}
}

// Every execution's costs wait in its statement entry, one row per
// entry: a cached execution, flagged or not, adds into its Shape, a
// slow-path one into its entry's sum block, and a Shape that is retired
// or evicted folds into its entry. An evicted entry's row waits, ahead of
// the live ones, until a landed row empties it.
func TestWorkloadTiers(t *testing.T) {
	m := New(Config{StatementCapacity: 2})
	const text = "SELECT a FROM t WHERE a = 1"
	d := sqlparser.DigestOf(text)
	var cell atomic.Pointer[Shape]
	publish := func(est Estimates) {
		cell.Store(m.Publish(d, text, "SELECT", []string{"t"}, nil, nil, est))
	}
	cached := func(cpu int64, err error) {
		h := m.StartStatement("SELECT a FROM t WHERE a = 9")
		h.Cached("SELECT", &cell, 0)
		h.Profiled()
		h.Finish(cpu, 0, 1, err)
		h.FlushWaits()
	}
	publish(Estimates{CPU: 2})
	cached(10, nil)
	cached(10, fmt.Errorf("failed"))
	m.Flag(text, FlagReasonManual, true, 0)
	cached(100, nil) // flagged: into the Shape all the same
	m.Unflag(text)
	h := m.StartStatement("SET x") // slow path: into its entry
	h.Parsed("SET", nil)
	h.Optimized(4, 0, 0, nil, nil, 0)
	h.Finish(1000, 0, 0, nil)

	type row struct{ hash, execs, cpu, errs uint64 }
	rows := func(ws []WorkloadEntry) (out []row) {
		for _, w := range ws {
			out = append(out, row{w.Hash, uint64(w.Executions), uint64(w.ExecCPU), uint64(w.Errors)})
		}
		return out
	}
	set := HashStatement("SET x")
	got := m.SnapshotWorkload()
	want := []row{{d, 3, 120, 1}, {set, 1, 1000, 0}}
	if !reflect.DeepEqual(rows(got), want) || got[0].EstCPU != 3*2 || got[1].EstCPU != 4 {
		t.Fatalf("workload %+v, want one row per entry %v", got, want)
	}

	// Another plan retires the Shape: its sums fold into the entry, with
	// the estimates of the plan that ran them, and the row stays one.
	cached(10, nil)
	publish(Estimates{CPU: 3})
	cached(10, nil)
	got = m.SnapshotWorkload()
	want = []row{{d, 5, 140, 1}, {set, 1, 1000, 0}}
	if !reflect.DeepEqual(rows(got), want) || got[0].EstCPU != 4*2+3 {
		t.Fatalf("workload after a re-plan %+v, want %v", got, want)
	}

	// A landed row is subtracted; what arrived since stays.
	m.Landed(got[:1])
	cached(10, nil)
	if got := rows(m.SnapshotWorkload()); !reflect.DeepEqual(got, []row{{d, 1, 10, 0}, {set, 1, 1000, 0}}) {
		t.Fatalf("workload after landing the first row %v", got)
	}

	// Eviction from the statement table (capacity 2) parks the entry,
	// whose row comes first until it lands.
	m.Publish(3, "third", "SELECT", nil, nil, nil, Estimates{})
	if m.WorkloadDepth() != 1 || m.EvictedStatements() != 6 {
		t.Errorf("depth %d, evicted %d after the eviction, want 1 and 6", m.WorkloadDepth(), m.EvictedStatements())
	}
	want = []row{{d, 1, 10, 0}, {set, 1, 1000, 0}}
	if got := rows(drain(m)); !reflect.DeepEqual(got, want) || m.WorkloadDepth() != 0 {
		t.Fatalf("drain after eviction %v, want %v (depth %d)", got, want, m.WorkloadDepth())
	}
	// The session still holding the evicted Shape finishes once more: the
	// execution is handed back through republish and nothing is dropped.
	cached(7, nil)
	if got, want := rows(drain(m)), []row{{d, 1, 7, 0}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("drain after a finish on the evicted Shape %v, want %v", got, want)
	}
	if m.WorkloadDropped() != 0 || m.TotalStatements() != 8 {
		t.Errorf("dropped %d, total %d", m.WorkloadDropped(), m.TotalStatements())
	}
}

// The FIFO of evicted entries counts what it pushes out in executions,
// and takes back what a row read before the push lands after it.
func TestWorkloadDroppedCountsExecutions(t *testing.T) {
	m := New(Config{StatementCapacity: 1})
	var cell atomic.Pointer[Shape]
	run := func(digest uint64, n int) { // publish digest (evicting the entry before it) and run it n times
		cell.Store(m.Publish(digest, fmt.Sprint("q", digest), "SELECT", nil, nil, nil, Estimates{}))
		for j := 0; j < n; j++ {
			cachedRecord(m, "q", "SELECT", &cell, 0)
		}
	}
	run(1, 2)
	run(2, 3) // entry 1 parked
	read := m.SnapshotWorkload()
	run(3, 4) // entry 2 parked, entry 1 and its 2 executions pushed out
	if got := m.WorkloadDropped(); got != 2 || m.WorkloadDepth() != 1 {
		t.Errorf("dropped %d executions at depth %d, want entry 1's 2 at depth 1", got, m.WorkloadDepth())
	}
	m.Landed(read) // both rows land after all
	if got := m.WorkloadDropped(); got != 0 || m.WorkloadDepth() != 0 {
		t.Errorf("after landing a row read before its drop: dropped %d, depth %d, want 0 and 0", got, m.WorkloadDepth())
	}
	run(4, 1) // entry 3 parked
	run(5, 0) // entry 4 parked, entry 3 and its 4 executions pushed out
	stored := int64(2 + 3)
	for _, w := range drain(m) {
		stored += w.Executions
	}
	if m.WorkloadDropped() != 4 || stored+m.WorkloadDropped() != m.TotalStatements() {
		t.Errorf("stored %d + dropped %d != total %d (want 4 dropped)", stored, m.WorkloadDropped(), m.TotalStatements())
	}
}

// Sessions finish through shared cells while the table — smaller than
// the shape population — evicts the entries under them, other sessions
// publish the hot shape with alternating objects, and snapshots and
// workload drains read along: every execution is counted exactly once,
// in a live entry or in the evicted total, against the objects of the
// Shape that ran it, and its costs, column by column, in one landed
// workload row or in the sums of evicted entries pushed out of the FIFO
// (the churn evicts faster than the reader lands). Run with -race.
func TestConservationUnderEvictionAndRepublish(t *testing.T) {
	const shapes, sessions, perSession = 40, 6, 4000
	m := New(Config{StatementCapacity: 16, Shards: 4})
	cells := make([]atomic.Pointer[Shape], shapes)
	for i := range cells {
		cells[i].Store(m.Publish(uint64(i+1), fmt.Sprintf("stmt %d", i), "SELECT", []string{"t"}, []string{fmt.Sprintf("t.c%d", i)}, nil, Estimates{}))
	}
	var hot [2]atomic.Pointer[Shape] // the hot shape under two plans
	hotObjects := [2][]string{{"ix_old"}, {"ix_new"}}
	for v := range hot {
		hot[v].Store(m.Publish(999, "hot", "SELECT", []string{"t"}, nil, hotObjects[v], Estimates{}))
	}
	var ranHot [2]atomic.Int64

	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perSession; i++ {
				if i%3 == 0 {
					v := r.Intn(2)
					cachedRecord(m, "hot", "SELECT", &hot[v], int64(g))
					ranHot[v].Add(1)
				} else {
					cachedRecord(m, "x", "SELECT", &cells[r.Intn(shapes)], int64(g))
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	var drained workloadSum
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, si := range m.SnapshotStatements() {
				if si.Lat.Total() != si.Frequency {
					t.Errorf("statement %d: histogram total %d, frequency %d", si.Hash, si.Lat.Total(), si.Frequency)
					return
				}
			}
			s := m.Snapshot()
			drained.add(s.Workload)
			m.Landed(s.Workload)
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()

	const total = sessions * perSession
	drained.add(drain(m))
	lost := m.stmts.lost
	drained.add([]WorkloadEntry{lost})
	if drained.Executions != total || drained.ExecCPU != total || drained.Rows != total || lost.Executions != m.WorkloadDropped() {
		t.Errorf("drained %d executions (cpu %d, rows %d) with the %d dropped, want %d in all, one tuple and one row each",
			drained.Executions, drained.ExecCPU, drained.Rows, m.WorkloadDropped(), total)
	}
	var live int64
	for _, si := range m.SnapshotStatements() {
		live += si.Frequency
	}
	if got := m.TotalStatements(); got != total || live+m.EvictedStatements() != total {
		t.Errorf("total %d (want %d): live %d + evicted %d = %d", got, total, live, m.EvictedStatements(), live+m.EvictedStatements())
	}
	if n := m.StatementCount(); n > 16 {
		t.Errorf("%d statements in a table of 16", n)
	}
	tf, _, xf := m.SnapshotFrequencies()
	if tf["t"] != total || xf["ix_old"] != ranHot[0].Load() || xf["ix_new"] != ranHot[1].Load() {
		t.Errorf("frequencies t=%d (want %d) ix_old=%d (want %d) ix_new=%d (want %d)",
			tf["t"], total, xf["ix_old"], ranHot[0].Load(), xf["ix_new"], ranHot[1].Load())
	}
}

// workloadSum adds up drained workload entries.
type workloadSum struct{ Executions, ExecCPU, Rows, Errors int64 }

func (s *workloadSum) add(ws []WorkloadEntry) {
	for _, w := range ws {
		s.Executions += w.Executions
		s.ExecCPU += w.ExecCPU
		s.Rows += w.Rows
		s.Errors += w.Errors
	}
}

// BenchmarkFinishCached is the sensor commit of a cached statement with
// every goroutine executing the same shape (run with -cpu 1,2,8: the
// shared entry must not become the contention point);
// BenchmarkFinishUncached is the slow path over the same five objects.
func BenchmarkFinishCached(b *testing.B) {
	m := New(Config{})
	sh := testShapes[1]
	var cell atomic.Pointer[Shape]
	cell.Store(m.Publish(1, "q", sh.kind, sh.tables, sh.attrs, sh.indexes, Estimates{}))
	var lanes atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		lane := lanes.Add(1)
		for pb.Next() {
			h := m.StartStatement("q")
			h.Cached(sh.kind, &cell, lane)
			h.Optimized(10, 5, 100, nil, nil, 0)
			h.Finish(120, 7, 100, nil)
		}
	})
}

func BenchmarkFinishUncached(b *testing.B) {
	m := New(Config{})
	sh := testShapes[1]
	const text = "SELECT p.nref_id, o.organism_name FROM protein p JOIN organism o ON p.nref_id = o.nref_id WHERE p.nref_id = 'NF00000001'"
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h := m.StartStatement(text)
			h.Parsed(sh.kind, sh.tables)
			h.Optimized(10, 5, 100, sh.attrs, sh.indexes, 0)
			h.Finish(120, 7, 100, nil)
		}
	})
}

// shapedRecord commits one execution of the cell's shape that took wall
// time d, under a text no other execution shares.
func shapedRecord(m *Monitor, cell *atomic.Pointer[Shape], n int, d time.Duration) {
	h := m.StartStatement(fmt.Sprintf("SELECT x FROM t WHERE k = %d", n))
	h.Cached("SELECT", cell, 0)
	h.start = time.Now().Add(-d)
	h.Finish(1, 0, 1, nil)
}
