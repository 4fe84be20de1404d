package monitor

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The statement table. An entry is one statement shape, keyed by its
// digest (sqlparser.Digest): the statements one prepared-cache entry
// serves. The table holds at most StatementCapacity entries and evicts
// the oldest inserted. It is touched when a shape is published, by
// snapshots, and by the slow path — statements the engine does not
// cache and callers that drive the sensors by hand. A cached statement
// never comes here: its prepared entry carries a Shape, the entry's
// counter block, and Finish increments that.
//
// Counts move one way: from a Shape's atomic counters into its entry
// (when the Shape is retired) and from an entry into the evicted total
// (when the entry is evicted). Costs wait in the entry until a persisted
// workload row carries them: in its sum block (the slow path's, and what
// a Shape hands over) and in its Shape's lanes. A landed row is
// subtracted from its entry (Landed); an evicted entry that still holds
// sums waits in the gone FIFO, at most StatementCapacity of them, and
// one pushed out of it counts its executions as WorkloadDropped. Moves
// happen under the table mutex, by swapping atomics to zero, so an
// execution is counted exactly once wherever a racing Finish lands it:
//
//	Σ live entries' frequency + evicted = TotalStatements
//	entry frequency = its histogram total (there is no other counter)
//	object frequency = per-name counts + Σ live Shapes' count × their objects
//	Σ landed Executions + WorkloadDropped + pending = TotalStatements
//
// A sum is exact over polls, not within one: an execution in flight
// while a row is read may leave some of its columns to the next.

// stmtEntry is one row of the statement table.
type stmtEntry struct {
	digest    uint64
	text      string // one sample text of the shape: the first seen
	kind      string
	firstSeen time.Time

	// Guarded by the table mutex. lat and lastSeen hold what the slow
	// path committed and what retired Shapes handed back; tables, attrs
	// and indexes are the objects ima_references lists: those of the
	// published Shape, else of the entry's first execution.
	lat                    LatencyCounts
	lastSeen               int64 // unix nanos
	live                   bool  // still in the table
	tables, attrs, indexes []string
	shape                  *Shape // the published counter block, if any

	// work is the entry's sum block: costs no landed row has carried
	// yet, besides those still in its Shape's lanes (Hash, Start and
	// entry unused). An evicted entry that holds sums is waiting in the
	// gone FIFO; one pushed out of it is dropped, for good.
	work             WorkloadEntry
	waiting, dropped bool

	// stages sums the stage vectors of the entry's sampled executions
	// (counter semantics: never subtracted).
	stages stageSums
}

// Estimates are the optimizer's cost figures for one plan: tuple
// operations, page I/Os and result cardinality.
type Estimates struct{ CPU, IO, Rows float64 }

// Shape is the counter block of one prepared statement: the statement
// entry it counts for, the objects its plan references and the plan's
// estimates. The engine publishes one per prepared-cache entry and keeps
// it in an atomic cell next to the plan; Finish replaces a retired one
// through that cell.
type Shape struct {
	entry                  *stmtEntry
	tables, attrs, indexes []string  // immutable
	est                    Estimates // immutable

	// retired is set, under the table mutex and before the counters are
	// drained, when the entry is evicted or re-published with other
	// objects or estimates. A Finish that finds it set after its adds
	// drains the block again, so nothing is ever stranded.
	retired atomic.Bool
	lanes   []shapeLane
}

// shapeLane is one stripe of a Shape's counters. Sessions stick to a
// lane, so two of them executing the same statement do not pass one
// cache line back and forth.
type shapeLane struct {
	lastSeen atomic.Int64 // unix nanos
	lat      [NumLatencyBuckets]atomic.Int64

	// Cost sums of the executions not yet folded into the entry's sum
	// block, which a workload row reports together with it.
	execs, errs, rows  atomic.Int64
	execCPU, execIO    atomic.Int64
	wallNanos          atomic.Int64
	optNanos, monNanos atomic.Int64

	_ [56]byte // pad to a multiple of the cache line
}

// addTo adds the Shape's current counts to c and returns its latest
// last-seen stamp.
func (s *Shape) addTo(c *LatencyCounts) (lastSeen int64) {
	for l := range s.lanes {
		ln := &s.lanes[l]
		lastSeen = max(lastSeen, ln.lastSeen.Load())
		for b := range ln.lat {
			c[b] += ln.lat[b].Load()
		}
	}
	return lastSeen
}

// sums adds the Shape's cost accumulators to w, swapping them to zero
// when take is set, and returns the latest last-seen stamp of its lanes.
// The estimates are the plan's times the executions added.
func (s *Shape) sums(w *WorkloadEntry, take bool) (lastSeen int64) {
	get := func(c *atomic.Int64) int64 {
		v := c.Load()
		if v != 0 && take {
			v = c.Swap(0)
		}
		return v
	}
	var n int64
	for i := range s.lanes {
		ln := &s.lanes[i]
		lastSeen = max(lastSeen, ln.lastSeen.Load())
		n += get(&ln.execs)
		w.Errors += get(&ln.errs)
		w.Rows += get(&ln.rows)
		w.ExecCPU += get(&ln.execCPU)
		w.ExecIO += get(&ln.execIO)
		w.Wall += time.Duration(get(&ln.wallNanos))
		w.OptTime += time.Duration(get(&ln.optNanos))
		w.MonNanos += get(&ln.monNanos)
	}
	w.Executions += n
	f := float64(n)
	w.EstCPU += f * s.est.CPU
	w.EstIO += f * s.est.IO
	w.EstRows += f * s.est.Rows
	return lastSeen
}

// maxLanes bounds a Shape's stripes (and so its size: 512 bytes each).
const maxLanes = 8

// stmtTable is the capacity-bounded statement table plus the stores
// evicted and retired counts drain into. All fields are guarded by mu.
type stmtTable struct {
	mu       sync.Mutex
	byDigest map[uint64]*stmtEntry // live and gone entries
	fifo     []*stmtEntry          // insertion order, a ring of the capacity
	head, n  int
	lanes    int

	evicted int64 // executions of entries no longer in the table

	// gone holds the evicted entries that still hold sums, oldest first,
	// at most as many as the table; byDigest keeps finding them. lost
	// sums what those pushed out held when no row had carried it.
	gone []*stmtEntry
	lost WorkloadEntry

	// Per-name object counts: what the slow path counted plus the counts
	// of retired Shapes.
	tableFreq, attrFreq, indexFreq map[string]int64

	// lookups, inserts, evictions count the table's own operations — the
	// work a cached statement's Finish must not do.
	lookups, inserts, evictions int64
}

// at returns the i-th oldest live entry.
func (t *stmtTable) at(i int) *stmtEntry { return t.fifo[(t.head+i)%len(t.fifo)] }

func (t *stmtTable) init(capacity, lanes int) {
	t.byDigest = make(map[uint64]*stmtEntry)
	t.fifo = make([]*stmtEntry, capacity)
	t.lanes = lanes
	t.tableFreq = map[string]int64{}
	t.attrFreq = map[string]int64{}
	t.indexFreq = map[string]int64{}
}

// resolveLocked returns the live entry of digest, inserting one — and
// evicting the oldest when the table is full — if there is none. A
// digest whose evicted entry still waits with sums gets that entry back,
// sums and all, so a digest has one row.
func (t *stmtTable) resolveLocked(digest uint64, text, kind string, seen time.Time) (e *stmtEntry, inserted bool) {
	t.lookups++
	e = t.byDigest[digest]
	if e != nil && e.live {
		return e, false
	}
	if e != nil {
		// Off the FIFO before the eviction below can push it out.
		t.gone = slices.DeleteFunc(t.gone, func(g *stmtEntry) bool { return g == e })
		e.waiting = false
		e.text, e.kind, e.firstSeen = text, kind, seen
		e.lat = LatencyCounts{} // went to the evicted total
	} else {
		e = &stmtEntry{digest: digest, text: text, kind: kind, firstSeen: seen}
	}
	if t.n == len(t.fifo) {
		old := t.at(0)
		t.head = (t.head + 1) % len(t.fifo)
		t.n--
		delete(t.byDigest, old.digest)
		if old.shape != nil {
			t.drainLocked(old.shape) // into old.lat: it is still live
		}
		old.live = false
		t.evicted += old.lat.Total()
		t.evictions++
		t.parkLocked(old)
	}
	e.live = true
	t.fifo[(t.head+t.n)%len(t.fifo)] = e
	t.n++
	t.byDigest[digest] = e
	t.inserts++
	return e, true
}

// drainLocked retires a Shape and moves whatever its counters hold into
// its entry — or, when that was evicted, into the evicted total — and
// into the per-name object counts; its cost sums fold into the entry's
// sum block.
func (t *stmtTable) drainLocked(s *Shape) {
	s.retired.Store(true)
	e := s.entry
	var n int64
	for i := range s.lanes {
		ln := &s.lanes[i]
		e.lastSeen = max(e.lastSeen, ln.lastSeen.Load())
		for b := range ln.lat {
			if ln.lat[b].Load() != 0 {
				c := ln.lat[b].Swap(0)
				e.lat[b] += c
				n += c
			}
		}
	}
	t.countLocked(s.tables, s.attrs, s.indexes, n)
	s.sums(&e.work, true)
	if !e.live {
		// The entry's total went to evicted when it left the table; what
		// arrives after that follows it.
		t.evicted += n
		t.parkLocked(e)
	}
}

// parkLocked keeps the sums of an entry out of the table until a landed
// row takes them: in the entry of its digest, when the digest has one
// again, else in the entry itself on the gone FIFO. A full FIFO pushes
// out its oldest entry and counts what it held as lost, as it does what
// reaches a pushed-out entry later.
func (t *stmtTable) parkLocked(e *stmtEntry) {
	switch to := t.byDigest[e.digest]; {
	case e.dropped:
		t.dropLocked(e)
	case e.waiting || !e.work.holds():
	case to != nil:
		to.work.add(&e.work, 1)
		to.lastSeen = max(to.lastSeen, e.lastSeen)
		e.work = WorkloadEntry{}
	default:
		if len(t.gone) == len(t.fifo) {
			old := t.gone[0]
			t.gone = append(t.gone[:0], t.gone[1:]...)
			delete(t.byDigest, old.digest)
			old.waiting, old.dropped = false, true
			t.dropLocked(old)
		}
		e.waiting = true
		t.gone = append(t.gone, e)
		t.byDigest[e.digest] = e
	}
}

func (t *stmtTable) dropLocked(e *stmtEntry) {
	t.lost.add(&e.work, 1)
	e.work = WorkloadEntry{}
}

// pending returns the entry's unpersisted sums as one workload row: its
// sum block plus what its Shape's lanes hold. ok is false when there is
// none. Caller holds the table mutex.
func (e *stmtEntry) pending() (w WorkloadEntry, ok bool) {
	w, last := e.work, e.lastSeen
	if e.shape != nil {
		last = max(last, e.shape.sums(&w, false))
	}
	w.Hash, w.Start, w.entry = e.digest, time.Unix(0, last), e
	return w, w.holds()
}

// workloadLocked returns the workload relation's rows: one per entry
// with unpersisted sums, the evicted ones oldest first, then the live
// ones in insertion order.
func (t *stmtTable) workloadLocked() []WorkloadEntry {
	var out []WorkloadEntry
	add := func(e *stmtEntry) {
		if w, ok := e.pending(); ok {
			out = append(out, w)
		}
	}
	for _, e := range t.gone {
		add(e)
	}
	for i := 0; i < t.n; i++ {
		add(t.at(i))
	}
	return out
}

// Landed subtracts workload rows that were persisted from the entries
// they were read from, so the entries keep exactly what no row carried.
// The rows come from one read (Snapshot or SnapshotWorkload) and land
// once: the storage daemon's cursor passes the prefix of its cut that
// its append landed. Evicted entries left with nothing leave the FIFO.
func (m *Monitor) Landed(ws []WorkloadEntry) {
	t := &m.stmts
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range ws {
		w := &ws[i]
		e := w.entry
		if e.dropped {
			// Counted lost when the FIFO pushed its entry out, yet it landed.
			t.lost.add(w, -1)
			continue
		}
		if e.shape != nil {
			// The row read the lanes; take them, so the block covers it.
			e.shape.sums(&e.work, true)
		}
		e.work.add(w, -1)
	}
	t.gone = slices.DeleteFunc(t.gone, func(e *stmtEntry) bool {
		if e.work.holds() {
			return false
		}
		e.waiting = false
		delete(t.byDigest, e.digest)
		return true
	})
}

// countLocked adds n executions to every listed object's frequency.
func (t *stmtTable) countLocked(tables, attrs, indexes []string, n int64) {
	if n == 0 {
		return
	}
	for _, x := range tables {
		t.tableFreq[x] += n
	}
	for _, x := range attrs {
		t.attrFreq[x] += n
	}
	for _, x := range indexes {
		t.indexFreq[x] += n
	}
}

// publishLocked returns the Shape counting executions of digest against
// exactly these objects and estimates: the entry's current one when it
// has them, else a new one, the previous retired.
func (t *stmtTable) publishLocked(digest uint64, text, kind string, tables, attrs, indexes []string, est Estimates) *Shape {
	e, _ := t.resolveLocked(digest, text, kind, time.Now())
	if s := e.shape; s != nil {
		if !s.retired.Load() && s.est == est && slices.Equal(s.tables, tables) && slices.Equal(s.attrs, attrs) && slices.Equal(s.indexes, indexes) {
			return s
		}
		t.drainLocked(s)
	}
	e.tables, e.attrs, e.indexes = tables, attrs, indexes
	e.shape = &Shape{entry: e, tables: tables, attrs: attrs, indexes: indexes, est: est, lanes: make([]shapeLane, t.lanes)}
	return e.shape
}

// Publish registers a statement shape — its digest, one sample text,
// its kind, the objects its plan references and the plan's estimates —
// and returns the Shape a prepared entry hands to Handle.Cached.
// Publishing a digest again (after the prepared cache dropped it)
// returns the same Shape unless the plan changed; the entry, its
// frequency and its histogram carry over either way. Publishing happens once per prepared entry, not per
// execution, so its time is no statement's mon_ns: it accumulates in
// PublishTime. A nil monitor returns nil.
func (m *Monitor) Publish(digest uint64, text, kind string, tables, attrs, indexes []string, est Estimates) *Shape {
	if m == nil {
		return nil
	}
	t0 := time.Now()
	t := &m.stmts
	t.mu.Lock()
	s := t.publishLocked(digest, text, kind, tables, attrs, indexes, est)
	t.mu.Unlock()
	m.publishNanos.Add(int64(time.Since(t0)))
	return s
}

// PublishTime returns the cumulative time spent publishing shapes: the
// sensors' cold-path cost, next to TotalMonitorTime's per-execution one.
func (m *Monitor) PublishTime() time.Duration { return time.Duration(m.publishNanos.Load()) }

// republish is Finish's answer to a retired Shape: drain the increment
// it just made and publish the shape again, so the next execution counts
// in the table.
func (t *stmtTable) republish(s *Shape) *Shape {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.drainLocked(s)
	e := s.entry
	return t.publishLocked(e.digest, e.text, e.kind, s.tables, s.attrs, s.indexes, s.est)
}

// commit is the slow path: one execution of a statement that brought no
// Shape, resolved by digest, counted name by name and added, costs and
// estimates, to the entry's sum block. The sensor's time ends once the
// execution is counted: commit reads the clock there, fills in w's wall
// and monitor time from t0, and returns the reading and the entry.
func (t *stmtTable) commit(h *Handle, bucket int, t0 time.Time, w WorkloadEntry) (time.Time, *stmtEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, inserted := t.resolveLocked(h.digest, h.text, h.kind, h.start)
	if inserted {
		e.tables, e.attrs, e.indexes = h.tables, h.attrs, h.indexes
	}
	e.lat[bucket]++
	e.lastSeen = max(e.lastSeen, h.start.UnixNano())
	t.countLocked(h.tables, h.attrs, h.indexes, 1)
	now := time.Now()
	w.Wall, w.MonNanos = now.Sub(h.start), int64(now.Sub(t0))
	e.work.add(&w, 1)
	return now, e
}

// TableOps returns how often the statement table was searched, grew and
// evicted since the monitor started.
func (m *Monitor) TableOps() (lookups, inserts, evictions int64) {
	t := &m.stmts
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lookups, t.inserts, t.evictions
}

// EvictedStatements returns the executions counted for entries the
// table has since evicted: TotalStatements minus the frequencies of the
// live entries.
func (m *Monitor) EvictedStatements() int64 {
	t := &m.stmts
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// StatementCount returns the number of distinct statements currently in
// the table.
func (m *Monitor) StatementCount() int {
	t := &m.stmts
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// counts returns the entry's histogram and last-seen stamp with its
// Shape's counters added in. Caller holds the table mutex.
func (e *stmtEntry) counts() (lat LatencyCounts, lastSeen int64) {
	lat, lastSeen = e.lat, e.lastSeen
	if e.shape != nil {
		lastSeen = max(lastSeen, e.shape.addTo(&lat))
	}
	return lat, lastSeen
}

// statementsLocked copies the live entries in insertion order. An entry
// published but not yet executed is left out, here and in the
// references.
func (t *stmtTable) statementsLocked() []StatementInfo {
	out := make([]StatementInfo, 0, t.n)
	for i := 0; i < t.n; i++ {
		e := t.at(i)
		lat, last := e.counts()
		if n := lat.Total(); n != 0 {
			out = append(out, StatementInfo{Hash: e.digest, Text: e.text, Kind: e.kind, Frequency: n,
				FirstSeen: e.firstSeen, LastSeen: time.Unix(0, last), Lat: lat})
		}
	}
	return out
}

// referencesLocked derives the statement → object rows from the live
// entries, in insertion order.
func (t *stmtTable) referencesLocked() []Reference {
	var out []Reference
	for i := 0; i < t.n; i++ {
		e := t.at(i)
		if lat, _ := e.counts(); lat.Total() == 0 {
			continue
		}
		for _, x := range e.tables {
			out = append(out, Reference{Hash: e.digest, Type: ObjTable, Name: x, Table: x})
		}
		for _, x := range e.attrs {
			out = append(out, Reference{Hash: e.digest, Type: ObjAttribute, Name: x, Table: tablePart(x)})
		}
		for _, x := range e.indexes {
			out = append(out, Reference{Hash: e.digest, Type: ObjIndex, Name: x})
		}
	}
	return out
}

// frequenciesLocked sums the per-name counts and every live Shape's
// count times its objects. One count per Shape feeds all its names, so
// a statement's objects always move together.
func (t *stmtTable) frequenciesLocked() (table, attr, index map[string]int64) {
	table, attr, index = maps.Clone(t.tableFreq), maps.Clone(t.attrFreq), maps.Clone(t.indexFreq)
	for i := 0; i < t.n; i++ {
		s := t.at(i).shape
		if s == nil {
			continue
		}
		var c LatencyCounts
		s.addTo(&c)
		if n := c.Total(); n != 0 {
			for _, x := range s.tables {
				table[x] += n
			}
			for _, x := range s.attrs {
				attr[x] += n
			}
			for _, x := range s.indexes {
				index[x] += n
			}
		}
	}
	return table, attr, index
}

func tablePart(attr string) string {
	for i := 0; i < len(attr); i++ {
		if attr[i] == '.' {
			return attr[:i]
		}
	}
	return ""
}
