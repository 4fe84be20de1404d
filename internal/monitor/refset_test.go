package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type refShape struct {
	kind                   string
	tables, attrs, indexes []string
}

// refShapes is a mixed population of statement shapes: selects over one
// and several tables sharing objects with one another, writes that
// reference a table only, and a statement that references nothing.
var refShapes = []refShape{
	{"SELECT", []string{"protein"}, []string{"protein.nref_id"}, []string{"protein.primary"}},
	{"SELECT", []string{"protein", "organism"}, []string{"protein.nref_id", "organism.nref_id", "organism.organism_name"}, []string{"protein.primary", "organism_nref"}},
	{"SELECT", []string{"protein", "taxonomy", "source"}, []string{"protein.length", "taxonomy.rank", "source.release_no", "protein.nref_id"}, nil},
	{"SELECT", []string{"Protein"}, []string{"protein.length"}, []string{"ix_len"}}, // names count as written
	{"UPDATE", []string{"protein"}, nil, nil},
	{"INSERT", []string{"source"}, nil, nil},
	{"SET", nil, nil, nil},
}

// Object frequencies summed from reference-set counters equal the
// per-name counts: one monitor is fed every execution name by name (the
// parser and optimizer sensors, as before reference sets existed), the
// other through registered sets — retired and re-registered mid-stream,
// as the engine does when it evicts a cached statement or DDL drops the
// cache — and both must report the same ima_tables / ima_attributes /
// ima_indexes frequencies and the same reference ring.
func TestRefSetFrequenciesEqualPerNameCounts(t *testing.T) {
	byName := New(Config{Shards: 4})
	bySet := New(Config{Shards: 4})
	sets := make([]*RefSet, len(refShapes))
	register := func(i int) {
		sh := refShapes[i]
		sets[i] = bySet.NewRefSet(sh.tables, sh.attrs, sh.indexes)
	}
	for i := range refShapes {
		register(i)
	}
	r := rand.New(rand.NewSource(17))
	for n := 0; n < 5000; n++ {
		i := r.Intn(len(refShapes))
		sh := refShapes[i]
		text := fmt.Sprintf("%s #%d literal %d", sh.kind, i, r.Intn(40)) // distinct texts spread over the shards

		h := byName.StartStatement(text)
		h.Parsed(sh.kind, sh.tables)
		h.Optimized(1, 1, 1, sh.attrs, sh.indexes, 0)
		h.Finish(1, 0, 1, nil)

		h = bySet.StartStatement(text)
		stale := sets[i]
		switch n % 250 {
		case 100: // evicted while this statement runs: it counts name by name
			bySet.RetireRefSets([]*RefSet{stale})
			register(i)
		case 200: // DDL: everything goes, slots are reused
			bySet.RetireRefSets(sets)
			for j := range refShapes {
				register(j)
			}
		}
		h.Prepared(sh.kind, stale)
		h.Optimized(1, 1, 1, sh.attrs, sh.indexes, 0)
		h.Finish(1, 0, 1, nil)
	}

	wt, wa, wi := byName.SnapshotFrequencies()
	gt, ga, gi := bySet.SnapshotFrequencies()
	if !reflect.DeepEqual(gt, wt) || !reflect.DeepEqual(ga, wa) || !reflect.DeepEqual(gi, wi) {
		t.Errorf("frequencies differ:\nby set:  %v %v %v\nby name: %v %v %v", gt, ga, gi, wt, wa, wi)
	}
	if got, want := bySet.SnapshotReferences(), byName.SnapshotReferences(); !reflect.DeepEqual(got, want) {
		t.Errorf("reference rings differ: %d vs %d entries", len(got), len(want))
	}
	// Retiring everything leaves the totals where they were, now in the
	// per-name store alone, and the registry empty.
	bySet.RetireRefSets(sets)
	gt, ga, gi = bySet.SnapshotFrequencies()
	if !reflect.DeepEqual(gt, wt) || !reflect.DeepEqual(ga, wa) || !reflect.DeepEqual(gi, wi) {
		t.Error("frequencies changed when the sets were retired")
	}
	for _, rs := range bySet.refSets {
		if rs != nil {
			t.Fatal("registry still holds a retired set")
		}
	}
	if len(bySet.freeSlots) != len(bySet.refSets) {
		t.Errorf("%d of %d slots are free after retiring every set", len(bySet.freeSlots), len(bySet.refSets))
	}
}

// The record path with a registered reference set allocates nothing,
// like the name-by-name one (TestPhase1RecordPathZeroAlloc).
func TestRefSetRecordPathZeroAlloc(t *testing.T) {
	m := New(Config{})
	const text = "SELECT a FROM t WHERE a = 1"
	rs := m.NewRefSet([]string{"t"}, []string{"t.a"}, []string{"t_a"})
	run := func() {
		h := m.StartStatement(text)
		h.Prepared("SELECT", rs)
		h.Optimized(10, 5, 100, rs.Attrs, rs.Indexes, time.Microsecond)
		h.Finish(120, 7, 100, nil)
	}
	run() // first call inserts the statement row and sizes the shard's counters
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("record path with a reference set allocates %.1f/op, want 0", allocs)
	}
	if tf, af, xf := m.SnapshotFrequencies(); tf["t"] != 202 || af["t.a"] != 202 || xf["t_a"] != 202 {
		t.Errorf("frequencies after 202 executions: %v %v %v", tf, af, xf)
	}
}

// BenchmarkFinishRefSet and BenchmarkFinishPerName compare the sensor
// commit of a five-object statement counted through a reference set and
// name by name.
func BenchmarkFinishRefSet(b *testing.B)  { benchFinish(b, true) }
func BenchmarkFinishPerName(b *testing.B) { benchFinish(b, false) }

func benchFinish(b *testing.B, useSet bool) {
	m := New(Config{})
	sh := refShapes[1]
	rs := m.NewRefSet(sh.tables, sh.attrs, sh.indexes)
	const text = "SELECT p.nref_id, o.organism_name FROM protein p JOIN organism o ON p.nref_id = o.nref_id WHERE p.nref_id = 'NF00000001'"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := m.StartStatement(text)
		if useSet {
			h.Prepared(sh.kind, rs)
		} else {
			h.Parsed(sh.kind, sh.tables)
		}
		h.Optimized(10, 5, 100, sh.attrs, sh.indexes, 0)
		h.Finish(120, 7, 100, nil)
	}
}

// Sessions commit executions through a shared reference set while the
// set is retired and re-registered under them and snapshots expand the
// counters: no execution is lost or counted twice, wherever it landed.
// Run with -race.
func TestRefSetConcurrentRetire(t *testing.T) {
	m := New(Config{Shards: 4})
	var cur atomic.Pointer[RefSet]
	cur.Store(m.NewRefSet([]string{"t"}, []string{"t.a"}, nil))
	const sessions, perSession = 4, 3000
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSession; i++ {
				h := m.StartStatement(fmt.Sprintf("SELECT a FROM t WHERE a = %d", g*perSession+i%97))
				h.Prepared("SELECT", cur.Load())
				h.Finish(1, 0, 1, nil)
			}
		}(g)
	}
	stop := make(chan struct{})
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
			old := cur.Swap(m.NewRefSet([]string{"t"}, []string{"t.a"}, nil))
			m.RetireRefSets([]*RefSet{old})
			if tf, af, _ := m.SnapshotFrequencies(); tf["t"] != af["t.a"] {
				t.Errorf("a snapshot saw table frequency %d and attribute frequency %d", tf["t"], af["t.a"])
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()
	if tf, af, _ := m.SnapshotFrequencies(); tf["t"] != sessions*perSession || af["t.a"] != sessions*perSession {
		t.Errorf("frequencies %d / %d after %d executions", tf["t"], af["t.a"], sessions*perSession)
	}
}
