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
// (when the entry is evicted); a Shape's cost sums move into a workload
// entry (when a drain takes them) or, as one aggregated entry, into the
// workload ring (when the Shape is retired). Always under the table
// mutex and always by swapping the atomic to zero, so an execution is
// counted exactly once wherever a racing Finish lands it:
//
//	Σ live entries' frequency + evicted = TotalStatements
//	entry frequency = its histogram total (there is no other counter)
//	object frequency = per-name counts + Σ live Shapes' count × their objects
//	Σ drained Executions + WorkloadDropped + pending = TotalStatements
//
// A sum is exact over drains, not within one: an execution in flight
// while a drain swaps may leave some of its columns to the next.

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

	// Cost sums of the executions no drain has taken yet: what the
	// workload relation reports for them, one row per drain.
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

// pending sums the Shape's cost accumulators into one workload entry,
// swapping them to zero when take is set. The estimates are the plan's
// times the executions taken. ok is false when the accumulators hold
// nothing.
func (s *Shape) pending(take bool) (w WorkloadEntry, ok bool) {
	var last int64
	get := func(c *atomic.Int64) int64 {
		v := c.Load()
		if v != 0 {
			ok = true
			if take {
				v = c.Swap(0)
			}
		}
		return v
	}
	for i := range s.lanes {
		ln := &s.lanes[i]
		last = max(last, ln.lastSeen.Load())
		w.Executions += get(&ln.execs)
		w.Errors += get(&ln.errs)
		w.Rows += get(&ln.rows)
		w.ExecCPU += get(&ln.execCPU)
		w.ExecIO += get(&ln.execIO)
		w.Wall += time.Duration(get(&ln.wallNanos))
		w.OptTime += time.Duration(get(&ln.optNanos))
		w.MonNanos += get(&ln.monNanos)
	}
	if !ok {
		return w, false
	}
	n := float64(w.Executions)
	w.Hash, w.Start = s.entry.digest, time.Unix(0, last)
	w.EstCPU, w.EstIO, w.EstRows = n*s.est.CPU, n*s.est.IO, n*s.est.Rows
	return w, true
}

// maxLanes bounds a Shape's stripes (and so its size: 512 bytes each).
const maxLanes = 8

// stmtTable is the capacity-bounded statement table plus the stores
// evicted and retired counts drain into. All fields are guarded by mu.
type stmtTable struct {
	mu       sync.Mutex
	byDigest map[uint64]*stmtEntry
	fifo     []*stmtEntry // insertion order, a ring of the capacity
	head, n  int
	lanes    int
	work     *workRing // where a retired Shape's undrained cost sums go

	evicted int64 // executions of entries no longer in the table

	// Per-name object counts: what the slow path counted plus the counts
	// of retired Shapes.
	tableFreq, attrFreq, indexFreq map[string]int64

	// lookups, inserts, evictions count the table's own operations — the
	// work a cached statement's Finish must not do.
	lookups, inserts, evictions int64
}

// at returns the i-th oldest live entry.
func (t *stmtTable) at(i int) *stmtEntry { return t.fifo[(t.head+i)%len(t.fifo)] }

func (t *stmtTable) init(capacity, lanes int, work *workRing) {
	t.byDigest = make(map[uint64]*stmtEntry)
	t.fifo = make([]*stmtEntry, capacity)
	t.lanes, t.work = lanes, work
	t.tableFreq = map[string]int64{}
	t.attrFreq = map[string]int64{}
	t.indexFreq = map[string]int64{}
}

// resolveLocked returns the live entry of digest, inserting one — and
// evicting the oldest when the table is full — if there is none.
func (t *stmtTable) resolveLocked(digest uint64, text, kind string, seen time.Time) (e *stmtEntry, inserted bool) {
	t.lookups++
	if e := t.byDigest[digest]; e != nil {
		return e, false
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
	}
	e = &stmtEntry{digest: digest, text: text, kind: kind, firstSeen: seen, live: true}
	t.fifo[(t.head+t.n)%len(t.fifo)] = e
	t.n++
	t.byDigest[digest] = e
	t.inserts++
	return e, true
}

// drainLocked retires a Shape and moves whatever its counters hold into
// its entry — or, when that was evicted, into the evicted total — and
// into the per-name object counts; its undrained cost sums go to the
// workload ring as one aggregated entry.
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
	if !e.live {
		// The entry's total went to evicted when it left the table; what
		// arrives after that follows it.
		t.evicted += n
	}
	t.countLocked(s.tables, s.attrs, s.indexes, n)
	if w, ok := s.pending(true); ok {
		t.work.push(w)
	}
}

// workloadLocked returns the workload relation's rows: the ring's
// entries, oldest first, then one entry per live Shape with undrained
// cost sums, in insertion order. take clears the ring and zeroes the
// sums. The table mutex makes it one cut: no Shape retires into the
// ring between the two reads.
func (t *stmtTable) workloadLocked(take bool) []WorkloadEntry {
	out := t.work.entries(take)
	for i := 0; i < t.n; i++ {
		if s := t.at(i).shape; s != nil {
			if w, ok := s.pending(take); ok {
				out = append(out, w)
			}
		}
	}
	return out
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
// Shape, resolved by digest and counted name by name.
func (t *stmtTable) commit(digest uint64, h *Handle, bucket int) {
	t.mu.Lock()
	e, inserted := t.resolveLocked(digest, h.text, h.kind, h.start)
	if inserted {
		e.tables, e.attrs, e.indexes = h.tables, h.attrs, h.indexes
	}
	e.lat[bucket]++
	e.lastSeen = max(e.lastSeen, h.start.UnixNano())
	t.countLocked(h.tables, h.attrs, h.indexes, 1)
	t.mu.Unlock()
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
