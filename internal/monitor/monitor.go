// Package monitor implements the paper's core contribution: integrated
// performance monitoring inside the DBMS. Sensors along the statement
// path (parse → optimize → execute) record query text, referenced
// objects, estimated and actual costs and wallclock times into fixed
// size in-memory ring buffers. The monitor never touches disk; the
// storage daemon (internal/daemon) persists snapshots, and internal/ima
// exposes the buffers as virtual SQL tables.
//
// Every sensor measures its own execution time so that the share of
// monitoring in total statement time (the paper's Figure 5) can be
// reproduced exactly.
//
// The hot path is sharded (see shard.go): sensor commits from
// concurrent sessions take one shard lock each, so monitoring overhead
// stays sensor-bound rather than contention-bound as sessions scale.
package monitor

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultStatementCapacity is the number of distinct statements the
// statement ring holds before wrapping around, as in the prototype
// ("by default, the monitoring can capture up to 1000 different
// statements until the buffer wraps around").
const DefaultStatementCapacity = 1000

// DefaultWorkloadCapacity is the number of workload (execution) entries
// kept in memory between daemon polls.
const DefaultWorkloadCapacity = 4096

// ObjType classifies a referenced database object.
type ObjType uint8

// Referenced object kinds.
const (
	ObjTable ObjType = iota
	ObjAttribute
	ObjIndex
)

// String returns "table", "attribute" or "index".
func (o ObjType) String() string {
	switch o {
	case ObjTable:
		return "table"
	case ObjAttribute:
		return "attribute"
	case ObjIndex:
		return "index"
	}
	return "?"
}

// StatementInfo is one row of the statements ring: a unique statement
// identified by the FNV-64 hash of its text.
type StatementInfo struct {
	Hash      uint64
	Text      string
	Kind      string // SELECT, INSERT, ...
	Frequency int64
	FirstSeen time.Time
	LastSeen  time.Time

	// Lat is the per-statement wallclock latency histogram. It is
	// plain (non-atomic) counters on purpose: it is bumped in the same
	// critical section as Frequency, so its total always equals
	// Frequency exactly, and StatementInfo stays copyable for the
	// snapshot path and the shard freelist.
	Lat LatencyCounts

	seq uint64 // global insertion order, for the cross-shard merge
}

// WorkloadEntry is one row of the workload ring: a single execution of
// a statement with its cost breakdown.
type WorkloadEntry struct {
	Hash     uint64
	Start    time.Time
	Wall     time.Duration // total statement wallclock
	OptTime  time.Duration // time spent in the optimizer
	ExecCPU  int64         // actual tuple operations
	ExecIO   int64         // actual page I/Os (buffer pool misses + writes)
	EstCPU   float64       // optimizer estimate, tuple operations
	EstIO    float64       // optimizer estimate, page I/Os
	EstRows  float64       // optimizer cardinality estimate
	Rows     int64         // rows produced
	MonNanos int64         // time spent inside monitor sensors
	Err      bool
}

// Reference is one row of the references ring: statement hash → object.
type Reference struct {
	Hash  uint64
	Type  ObjType
	Name  string // object name (attribute as "table.column")
	Table string // owning table (= Name for tables)
}

// Config sizes the monitor's ring buffers.
type Config struct {
	StatementCapacity int
	WorkloadCapacity  int
	ReferenceCapacity int
	// Shards is the number of ways the hot path is split (rounded up
	// to a power of two, capped at 64). Zero derives it from
	// GOMAXPROCS. The shard count never changes observable semantics,
	// only contention.
	Shards int
	// TraceCapacity bounds the ring of per-operator statement traces
	// (EXPLAIN ANALYZE). Zero means DefaultTraceCapacity.
	TraceCapacity int
	// MaxFlagged bounds the phase-2 flag set (flags.go). Zero means
	// DefaultMaxFlagged.
	MaxFlagged int
}

// Monitor is the in-core monitoring component. A disabled monitor adds
// only a nil check to the statement path, which is the paper's
// "Original" baseline.
type Monitor struct {
	enabled atomic.Bool

	// Statement table, reference ring and frequency maps, sharded by
	// statement hash.
	shards    []stmtShard
	shardMask uint64
	stmtCap   int          // global distinct-statement capacity
	liveStmts atomic.Int64 // distinct statements across shards, ≤ stmtCap
	evict     evictFIFO    // statement insertions in global order

	// Workload ring, sharded round-robin by execution sequence so the
	// union of shard rings is exactly the newest workCap entries.
	workShards []workShard
	workMask   uint64
	workCap    int // total capacity across shards
	workSeq    atomic.Uint64
	liveWork   atomic.Int64 // entries currently buffered, ≤ workCap

	// fullHandler, when set, is invoked (outside any monitor lock)
	// once when the workload ring crosses ~90% of its capacity, and is
	// re-armed by DrainWorkload. This is the paper's §IV-B extension:
	// writing to the workload DB "only when the main memory buffers
	// are full" instead of on a fixed schedule.
	fullHandler atomic.Value // func()
	fullFired   atomic.Bool

	// workDropped counts workload entries lost to ring wraparound
	// before any drain persisted them. When the storage daemon's
	// carryover buffer is full it deliberately stops draining and lets
	// the ring wrap — this counter makes that bounded loss observable.
	workDropped atomic.Int64

	// refSets is the registry of live reference sets (refset.go): slot i
	// of every statement shard's setCounts counts executions of
	// refSets[i]. Guarded by refMu; slots are reused after Retire.
	refMu     sync.Mutex
	refSets   []*RefSet
	freeSlots []int32

	// traces is the bounded ring of per-operator statement traces
	// (see trace.go); written only by EXPLAIN ANALYZE, never by the
	// regular statement hot path.
	traces traceRing

	// Two-phase adaptive monitoring (flags.go). flaggedCount gates the
	// hot path: while it is zero, StartStatement/Finish stay on the
	// phase-1-only path at the cost of a single extra atomic load.
	flaggedCount atomic.Int64
	flags        atomic.Pointer[flagSet]
	flagMu       sync.Mutex // serializes copy-on-write flag set swaps
	flagCap      int

	// Monitor-global cumulative wait counters (phase 2), mirrored by
	// the per-statement breakdowns in the flag entries.
	waitExec  atomic.Int64
	waitLock  atomic.Int64
	waitIO    atomic.Int64
	waitFsync atomic.Int64
	waitPin   atomic.Int64
	// phase2Nanos is the self-measured cost of the phase-2 machinery
	// (flag lookups + wait recording); phase 1 is monNanosTotal.
	phase2Nanos atomic.Int64
}

// New creates an enabled monitor with the given configuration. Zero
// capacities fall back to the defaults.
func New(cfg Config) *Monitor {
	if cfg.StatementCapacity <= 0 {
		cfg.StatementCapacity = DefaultStatementCapacity
	}
	if cfg.WorkloadCapacity <= 0 {
		cfg.WorkloadCapacity = DefaultWorkloadCapacity
	}
	if cfg.ReferenceCapacity <= 0 {
		cfg.ReferenceCapacity = cfg.StatementCapacity * 8
	}
	nShards := cfg.Shards
	if nShards <= 0 {
		nShards = defaultShards()
	}
	nShards = ceilPow2(nShards)
	if nShards > maxShards {
		nShards = maxShards
	}
	// The workload shard count must divide the capacity so the union
	// of per-shard rings holds exactly the newest WorkloadCapacity
	// entries (odd capacities degrade to a single shard).
	nWork := largestPow2Dividing(cfg.WorkloadCapacity)
	if nWork > nShards {
		nWork = nShards
	}
	perWork := cfg.WorkloadCapacity / nWork
	// References round up to a whole ring per shard.
	perRef := (cfg.ReferenceCapacity + nShards - 1) / nShards

	m := &Monitor{
		shards:     make([]stmtShard, nShards),
		shardMask:  uint64(nShards - 1),
		stmtCap:    cfg.StatementCapacity,
		workShards: make([]workShard, nWork),
		workMask:   uint64(nWork - 1),
		workCap:    perWork * nWork,
	}
	m.evict.init(cfg.StatementCapacity)
	m.traces.init(cfg.TraceCapacity)
	m.flagCap = cfg.MaxFlagged
	if m.flagCap <= 0 {
		m.flagCap = DefaultMaxFlagged
	}
	m.flags.Store(emptyFlags)
	for i := range m.shards {
		m.shards[i].init(perRef)
	}
	for i := range m.workShards {
		m.workShards[i].ring = make([]WorkloadEntry, perWork)
		m.workShards[i].seqs = make([]uint64, perWork)
	}
	m.enabled.Store(true)
	return m
}

// SetEnabled switches the monitor on or off at runtime.
func (m *Monitor) SetEnabled(v bool) { m.enabled.Store(v) }

// Enabled reports whether sensors are active.
func (m *Monitor) Enabled() bool { return m.enabled.Load() }

// ShardCount reports how many ways the statement-side hot path is
// split (the workload ring may use fewer shards; see New).
func (m *Monitor) ShardCount() int { return len(m.shards) }

// Handle accumulates sensor data for one executing statement. It is
// returned by value so the hot path allocates nothing; the zero Handle
// (and a nil *Handle) is inert, which is how a disabled monitor keeps
// the statement path down to a couple of nil checks. A handle is
// single-use: Finish commits it and further calls are no-ops.
type Handle struct {
	m     *Monitor
	text  string
	kind  string
	start time.Time

	// Referenced objects: either a registered reference set (a cached
	// statement shape: counted with one increment) or the loose lists the
	// parser and optimizer sensors delivered (first execution of a shape,
	// DDL, failed statements: counted name by name).
	refs    *RefSet
	tables  []string
	attrs   []string // "table.column"
	indexes []string

	optTime time.Duration
	estCPU  float64
	estIO   float64
	estRows float64

	// Phase-2 wait accumulation, populated by the engine only when the
	// statement is flagged (see flags.go). Plain fields: a handle is
	// owned by one session goroutine. wallNs is latched by Finish so
	// FlushWaits — which the engine calls after the commit-path waits
	// have landed — can report the breakdown against the full wall time.
	profiled bool
	pm       *Monitor // latched by Profiled; survives Finish's h.m reset
	execNs   int64
	lockNs   int64
	ioNs     int64
	fsyncNs  int64
	pinNs    int64
	wallNs   int64
}

// HashStatement returns the FNV-64a hash the monitor keys statements
// by. The loop is written out (rather than using hash/fnv) so the hot
// path pays no interface dispatch and no string→[]byte copy.
func HashStatement(text string) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(text); i++ {
		h ^= uint64(text[i])
		h *= prime64
	}
	return h
}

// StartStatement begins monitoring one statement execution. It is the
// "Wallclock Start" sensor at the query interface. The returned handle
// is a value — callers keep it on their stack, so starting a statement
// costs one clock read and a struct fill, with no allocation. Hashing
// of the statement text is deferred to Finish, where it is covered by
// the self-measurement that feeds the paper's Figure 5.
func (m *Monitor) StartStatement(text string) Handle {
	if m == nil || !m.enabled.Load() {
		return Handle{}
	}
	return Handle{m: m, text: text, start: time.Now()}
}

// Live reports whether the handle still records: it came from an
// enabled monitor and has not been finished. Callers use it to skip
// gathering figures only Finish would read.
func (h *Handle) Live() bool { return h != nil && h.m != nil }

// Parsed is the parser sensor: statement kind and referenced tables,
// logged "right at the source" while the parser has them in hand. The
// slice is retained by reference and must not be mutated afterwards.
// Its cost is a handful of stores; the self-measurement that feeds
// Figure 5 happens in StartStatement and Finish, which carry the real
// work (hashing and the ring-buffer commit).
func (h *Handle) Parsed(kind string, tables []string) {
	if h == nil {
		return
	}
	h.kind = kind
	h.tables = tables
	h.refs = nil
}

// Prepared is the parser and the object half of the optimizer sensor in
// one store, for a statement whose shape the engine has prepared
// before: kind and the registered reference set it cached with the
// shape. Estimates still arrive through Optimized.
func (h *Handle) Prepared(kind string, refs *RefSet) {
	if h == nil {
		return
	}
	h.kind = kind
	h.refs = refs
}

// Optimized is the optimizer sensor: estimated costs, referenced
// attributes and the indexes the plan uses. Both slices are retained
// by reference (the engine passes the cached plan's immutable slices)
// and ignored when Prepared supplied a reference set.
func (h *Handle) Optimized(estCPU, estIO, estRows float64, attrs, indexes []string, optTime time.Duration) {
	if h == nil {
		return
	}
	h.estCPU, h.estIO, h.estRows = estCPU, estIO, estRows
	h.attrs = attrs
	h.indexes = indexes
	h.optTime = optTime
}

// Finish is the "Wallclock Stop" sensor: it commits the collected data
// into the ring buffers under two short, sharded critical sections
// (statement table, then workload ring). Finish is idempotent — the
// first call commits, later calls on the same handle are no-ops — so
// error paths that stop the wallclock early cannot double-count an
// execution.
func (h *Handle) Finish(execCPU, execIO, rows int64, execErr error) {
	if h == nil || h.m == nil {
		return
	}
	t0 := time.Now()
	m := h.m
	h.m = nil
	hash := HashStatement(h.text)
	// Per-statement histogram bucket, derived from the clock read the
	// sensor already paid for. The few hundred nanoseconds of Finish
	// itself excluded here cannot move a sample across a power-of-two
	// bucket boundary in any regime where the histogram is meaningful.
	wallBucket := latencyBucket(t0.Sub(h.start))

	entry := WorkloadEntry{
		Hash:    hash,
		Start:   h.start,
		OptTime: h.optTime,
		ExecCPU: execCPU,
		ExecIO:  execIO,
		EstCPU:  h.estCPU,
		EstIO:   h.estIO,
		EstRows: h.estRows,
		Rows:    rows,
		Err:     execErr != nil,
	}

	tables, attrs, indexes := h.tables, h.attrs, h.indexes
	if h.refs != nil {
		tables, attrs, indexes = h.refs.Tables, h.refs.Attrs, h.refs.Indexes
	}

	// Statement table, references and object frequencies: one shard,
	// selected by statement hash.
	sh := &m.shards[hash&m.shardMask]
	sh.mu.Lock()
	si := sh.stmts[hash]
	if si == nil {
		// New statement: acquire one slot of the global capacity.
		// While capacity remains, a CAS reservation succeeds without
		// dropping the shard lock. When the table is full, the slot
		// comes from evicting the globally oldest statement, which
		// lives in some other shard — drop this shard's lock for the
		// eviction (at most one shard lock is ever held), then
		// re-check for a racing insert.
		reserved := false
		for {
			n := m.liveStmts.Load()
			if n >= int64(m.stmtCap) {
				break
			}
			if m.liveStmts.CompareAndSwap(n, n+1) {
				reserved = true
				break
			}
		}
		if !reserved {
			// Evicting inline keeps this shard's lock held: the victim
			// usually lives in another shard, taken with TryLock, which
			// never blocks and therefore cannot deadlock regardless of
			// lock order.
			if victimHash, ok := m.evict.claimOldest(); ok {
				victim := &m.shards[victimHash&m.shardMask]
				if victim == sh {
					sh.removeLocked(victimHash)
				} else if victim.mu.TryLock() {
					victim.removeLocked(victimHash)
					victim.mu.Unlock()
				} else {
					// Victim shard busy: finish the claimed eviction
					// the blocking way, which requires dropping this
					// shard's lock first (at most one blocking shard
					// lock is ever held), then re-checking for a
					// racing insert.
					sh.mu.Unlock()
					victim.mu.Lock()
					victim.removeLocked(victimHash)
					victim.mu.Unlock()
					sh.mu.Lock()
					si = sh.stmts[hash]
				}
			} else {
				// Table full but nothing published to evict yet: the
				// capacity is held by in-flight inserts. Take the
				// general retry path without this shard's lock.
				sh.mu.Unlock()
				m.acquireStmtSlot()
				sh.mu.Lock()
				si = sh.stmts[hash]
			}
		}
		if si == nil {
			si = sh.newStmtLocked()
			*si = StatementInfo{Hash: hash, Text: h.text, Kind: h.kind, FirstSeen: h.start}
			si.seq = m.evict.publish(hash)
			sh.stmts[hash] = si

			// References: recorded once per insertion, in the same
			// critical section, so their merge order is derived from
			// the statement's insertion sequence — no extra global
			// counter on the hot path.
			seq := si.seq << 16
			for _, t := range tables {
				sh.addRefLocked(Reference{Hash: hash, Type: ObjTable, Name: t, Table: t}, seq)
				seq++
			}
			for _, a := range attrs {
				sh.addRefLocked(Reference{Hash: hash, Type: ObjAttribute, Name: a, Table: tablePart(a)}, seq)
				seq++
			}
			for _, ix := range indexes {
				sh.addRefLocked(Reference{Hash: hash, Type: ObjIndex, Name: ix}, seq)
				seq++
			}
		} else {
			// Lost the insert race. The acquired slot is surplus either
			// way: a reservation is returned, an evicted slot means the
			// table shrank by one — the live count drops by one in both
			// cases.
			m.liveStmts.Add(-1)
		}
	}
	si.Frequency++
	si.LastSeen = h.start
	si.Lat[wallBucket]++ // same critical section as Frequency: totals match exactly

	// Object frequencies: one counter for a registered reference set,
	// expanded to its names at snapshot time; name by name otherwise.
	if rs := h.refs; rs != nil && rs.slot >= 0 {
		sh.countSetLocked(rs.slot)
	} else {
		sh.countNamesLocked(tables, attrs, indexes, 1)
	}
	sh.mu.Unlock()

	// Workload ring: round-robin shard by execution sequence, so load
	// spreads evenly even when every session runs the same statement.
	// Monitor time includes this commit, estimated from the sensors so
	// far plus the elapsed time in Finish. One clock read serves both
	// durations.
	now := time.Now()
	entry.MonNanos = int64(now.Sub(t0))
	entry.Wall = now.Sub(h.start)
	wseq := m.workSeq.Add(1)
	ws := &m.workShards[wseq&m.workMask]
	ws.mu.Lock()
	var live int64
	if ws.n < len(ws.ring) {
		ws.n++
		live = m.liveWork.Add(1)
	} else {
		live = int64(m.workCap) // overwrote this shard's oldest entry
		m.workDropped.Add(1)
	}
	ws.ring[ws.pos] = entry
	ws.seqs[ws.pos] = wseq
	ws.pos = (ws.pos + 1) % len(ws.ring)
	ws.stmtTotal++
	ws.monNanosTotal += entry.MonNanos
	ws.wallNanosTotal += int64(entry.Wall)
	ws.optNanosTotal += int64(entry.OptTime)
	ws.mu.Unlock()

	// Global latency histograms: lock-free atomic bumps on this
	// shard's counters, outside the critical section. Round-robin
	// shard selection means the counters are usually uncontended even
	// when every session runs the same statement.
	ws.wallHist.record(entry.Wall)
	ws.optHist.record(entry.OptTime)

	// Phase 2: latch the wall time for flagged statements. The wait
	// breakdown itself is committed by FlushWaits, which the engine
	// calls once every wait source (including the autocommit durability
	// wait, which runs after some Finish call sites) has accumulated.
	// h.profiled is only ever set through Profiled(), which the engine
	// calls when the flag set is non-empty, so the idle path skips this
	// without even a load.
	if h.profiled {
		h.wallNs = int64(entry.Wall)
	}

	if live*10 >= int64(m.workCap)*9 && !m.fullFired.Load() &&
		m.fullFired.CompareAndSwap(false, true) {
		if fn, ok := m.fullHandler.Load().(func()); ok && fn != nil {
			fn()
		}
	}
}

// SetFullHandler registers fn to be called once whenever the workload
// ring crosses ~90% of its capacity; DrainWorkload re-arms it. The
// storage daemon uses this to flush early instead of losing entries to
// ring wraparound under statement bursts.
func (m *Monitor) SetFullHandler(fn func()) { m.fullHandler.Store(fn) }

// WorkloadDepth returns the number of workload entries currently
// buffered in the ring (one atomic load; safe on the hot path). The
// storage daemon reads it to decide how much is pending while its own
// carryover buffer is saturated.
func (m *Monitor) WorkloadDepth() int64 { return m.liveWork.Load() }

// WorkloadDropped returns the cumulative number of workload entries
// overwritten by ring wraparound before a drain could persist them.
func (m *Monitor) WorkloadDropped() int64 { return m.workDropped.Load() }

func tablePart(attr string) string {
	for i := 0; i < len(attr); i++ {
		if attr[i] == '.' {
			return attr[:i]
		}
	}
	return ""
}

// TotalStatements returns the cumulative number of monitored
// executions, unaffected by ring wraparound.
func (m *Monitor) TotalStatements() int64 {
	m.lockWorkShards()
	defer m.unlockWorkShards()
	var n int64
	for i := range m.workShards {
		n += m.workShards[i].stmtTotal
	}
	return n
}

// TotalMonitorTime returns the cumulative time spent inside sensors.
func (m *Monitor) TotalMonitorTime() time.Duration {
	m.lockWorkShards()
	defer m.unlockWorkShards()
	var n int64
	for i := range m.workShards {
		n += m.workShards[i].monNanosTotal
	}
	return time.Duration(n)
}

// StatementCount returns the number of distinct statements currently in
// the ring.
func (m *Monitor) StatementCount() int {
	m.lockStmtShards()
	defer m.unlockStmtShards()
	n := 0
	for i := range m.shards {
		n += len(m.shards[i].stmts)
	}
	return n
}
