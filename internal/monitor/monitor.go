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
// Statements are counted per shape (statements.go): a cached
// statement's sensor commit adds to the counters its prepared entry
// carries — frequency, latency bucket and cost sums — and to the
// lane-striped totals (shard.go); it neither hashes the text nor touches
// the statement table. Every execution's costs wait in its statement
// entry until the daemon persists them, one workload row per shape and
// poll.
package monitor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sqlparser"
)

// DefaultStatementCapacity is the number of distinct statements the
// statement table holds before it evicts the oldest, as in the prototype
// ("by default, the monitoring can capture up to 1000 different
// statements until the buffer wraps around").
const DefaultStatementCapacity = 1000

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

// StatementInfo is one row of the statement table as a snapshot reads
// it: a statement shape, identified by its digest (sqlparser.Digest).
type StatementInfo struct {
	Hash      uint64
	Text      string // one sample text of the shape
	Kind      string // SELECT, INSERT, ...
	Frequency int64  // always Lat.Total(): the histogram is the counter
	FirstSeen time.Time
	LastSeen  time.Time

	// Lat is the shape's wallclock latency histogram.
	Lat LatencyCounts
}

// WorkloadEntry is one row of the workload relation: the cost breakdown
// of Executions executions of one statement shape that no landed row has
// carried yet, every cost field a sum over them.
type WorkloadEntry struct {
	Hash       uint64
	Start      time.Time     // the latest start among the executions
	Wall       time.Duration // Σ statement wallclock
	OptTime    time.Duration // Σ time spent in the optimizer
	ExecCPU    int64         // Σ actual tuple operations
	ExecIO     int64         // Σ actual page I/Os (buffer pool misses + writes)
	EstCPU     float64       // Σ optimizer estimate, tuple operations
	EstIO      float64       // Σ optimizer estimate, page I/Os
	EstRows    float64       // Σ optimizer cardinality estimate
	Rows       int64         // Σ rows produced
	MonNanos   int64         // Σ time spent inside monitor sensors
	Errors     int64         // executions that failed
	Executions int64

	entry *stmtEntry // where the sums wait: what Landed subtracts from
}

// add adds o's sums to w's, or subtracts them when sign is -1.
func (w *WorkloadEntry) add(o *WorkloadEntry, sign int64) {
	f := float64(sign)
	w.Wall += time.Duration(sign) * o.Wall
	w.OptTime += time.Duration(sign) * o.OptTime
	w.ExecCPU += sign * o.ExecCPU
	w.ExecIO += sign * o.ExecIO
	w.EstCPU += f * o.EstCPU
	w.EstIO += f * o.EstIO
	w.EstRows += f * o.EstRows
	w.Rows += sign * o.Rows
	w.MonNanos += sign * o.MonNanos
	w.Errors += sign * o.Errors
	w.Executions += sign * o.Executions
}

// holds reports whether any counted sum is nonzero. The estimates do
// not count: they only ride along with executions.
func (w *WorkloadEntry) holds() bool {
	return w.Executions|w.Errors|w.Rows|w.ExecCPU|w.ExecIO|w.MonNanos|int64(w.Wall|w.OptTime) != 0
}

// Reference is one statement → object row, derived from the statement
// table's live entries.
type Reference struct {
	Hash  uint64
	Type  ObjType
	Name  string // object name (attribute as "table.column")
	Table string // owning table (= Name for tables)
}

// Config sizes the monitor's buffers.
type Config struct {
	// StatementCapacity bounds the statement table, and the evicted
	// entries still holding sums. Zero means DefaultStatementCapacity.
	StatementCapacity int
	// Shards is the number of ways (rounded up to a power of two,
	// capped at 8) a Shape's counters and the cumulative totals are
	// striped. Zero derives it from GOMAXPROCS. The shard count never
	// changes observable semantics, only contention.
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

	// Statement table and per-name object frequencies (statements.go).
	stmts        stmtTable
	publishNanos atomic.Int64 // time spent in Publish

	// Cumulative totals and the global latency histograms, striped like
	// a Shape's lanes; every Finish adds to one lane and readers sum.
	totals []totalLane

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
	lanes := cfg.Shards
	if lanes <= 0 {
		lanes = runtime.GOMAXPROCS(0)
	}
	lanes = min(ceilPow2(lanes), maxLanes)

	m := &Monitor{totals: make([]totalLane, lanes)}
	m.stmts.init(cfg.StatementCapacity, lanes)
	m.traces.init(cfg.TraceCapacity)
	m.flagCap = cfg.MaxFlagged
	if m.flagCap <= 0 {
		m.flagCap = DefaultMaxFlagged
	}
	m.flags.Store(emptyFlags)
	m.enabled.Store(true)
	return m
}

// SetEnabled switches the monitor on or off at runtime.
func (m *Monitor) SetEnabled(v bool) { m.enabled.Store(v) }

// Enabled reports whether sensors are active.
func (m *Monitor) Enabled() bool { return m.enabled.Load() }

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

	// What the statement is counted under: the Shape its prepared entry
	// carries (cell, and the session's lane in it), or — on the slow path
	// — a digest (the engine's, when keyed; else the hash of the text)
	// and the object lists the parser and optimizer sensors delivered.
	cell    *atomic.Pointer[Shape]
	lane    uint32
	keyed   bool
	digest  uint64 // latched by Finish in every case, for FlushWaits
	tables  []string
	attrs   []string // "table.column"
	indexes []string

	optTime time.Duration
	est     Estimates

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

// HashStatement returns the digest of a statement that has no shape
// key: the FNV-64a hash of its text. Statements driven through
// StartStatement alone are keyed by it.
func HashStatement(text string) uint64 { return sqlparser.Digest(text, nil) }

// StartStatement begins monitoring one statement execution. It is the
// "Wallclock Start" sensor at the query interface. The returned handle
// is a value — callers keep it on their stack, so starting a statement
// costs one clock read and a struct fill, with no allocation.
func (m *Monitor) StartStatement(text string) Handle {
	if m == nil || !m.enabled.Load() {
		return Handle{}
	}
	return Handle{m: m, text: text, start: time.Now()}
}

// Started returns the statement's wallclock start (zero when the handle
// does not record), so the engine can stamp the statement's snapshot
// without reading the clock again.
func (h *Handle) Started() time.Time { return h.start }

// Live reports whether the handle still records: it came from an
// enabled monitor and has not been finished. Callers use it to skip
// gathering figures only Finish would read.
func (h *Handle) Live() bool { return h != nil && h.m != nil }

// Parsed is the parser sensor: statement kind and referenced tables,
// logged "right at the source" while the parser has them in hand. The
// slice is retained by reference and must not be mutated afterwards.
// It puts the statement on the slow path: Finish resolves its entry by
// digest.
func (h *Handle) Parsed(kind string, tables []string) {
	if h == nil {
		return
	}
	h.kind = kind
	h.tables = tables
	h.cell = nil
}

// Keyed gives a slow-path statement the digest the engine derived from
// its shape key; without it Finish hashes the text.
func (h *Handle) Keyed(digest uint64) {
	if h == nil {
		return
	}
	h.digest, h.keyed = digest, true
}

// Cached is the parser and the object half of the optimizer sensor in
// one store, for a statement served by a prepared entry: cell holds the
// Shape published for the entry (Finish replaces it there should it be
// retired) and lane, any number the session sticks to, picks the stripe
// of its counters. Estimates still arrive through Optimized. The cell
// must hold a Shape.
func (h *Handle) Cached(kind string, cell *atomic.Pointer[Shape], lane int64) {
	if h == nil {
		return
	}
	h.kind = kind
	h.cell = cell
	h.lane = uint32(lane)
}

// Optimized is the optimizer sensor: estimated costs, referenced
// attributes and the indexes the plan uses. Both slices are retained
// by reference (the engine passes the cached plan's immutable slices).
// When Cached supplied a Shape only optTime counts: the Shape was
// published with the plan's objects and estimates.
func (h *Handle) Optimized(estCPU, estIO, estRows float64, attrs, indexes []string, optTime time.Duration) {
	if h == nil {
		return
	}
	h.est = Estimates{estCPU, estIO, estRows}
	h.attrs = attrs
	h.indexes = indexes
	h.optTime = optTime
}

// statementDigest is what the statement is, or will be, counted under.
func (h *Handle) statementDigest() uint64 {
	switch {
	case h.cell != nil:
		return h.cell.Load().entry.digest
	case h.keyed:
		return h.digest
	}
	return HashStatement(h.text)
}

// Finish is the "Wallclock Stop" sensor: it counts the execution under
// its statement and adds its costs to the statement's sums. For a cached
// statement, flagged or not, both are atomic adds to the session's lane
// of the Shape its prepared entry carries — a latency bucket (the bucket
// sum is the frequency), a last-seen stamp and the cost sums — and
// nothing else: no table, no mutex. A statement without a Shape visits
// the statement table under its lock and adds to its entry's sum block.
// Every execution adds to the cumulative totals. Finish is idempotent —
// the first call commits, later calls on the same handle are no-ops — so
// error paths that stop the wallclock early cannot double-count an
// execution.
func (h *Handle) Finish(execCPU, execIO, rows int64, execErr error) {
	if h == nil || h.m == nil {
		return
	}
	t0 := time.Now()
	m := h.m
	h.m = nil
	// Per-statement histogram bucket, derived from the clock read the
	// sensor already paid for. The few hundred nanoseconds of Finish
	// itself excluded here cannot move a sample across a power-of-two
	// bucket boundary in any regime where the histogram is meaningful.
	wallBucket := latencyBucket(t0.Sub(h.start))
	var errs int64
	if execErr != nil {
		errs = 1
	}

	// Monitor time is Finish up to the count; one clock read there
	// serves both durations, and the cost adds after it carry them.
	var s *Shape
	var now time.Time
	if h.cell != nil {
		s = h.cell.Load()
		h.digest = s.entry.digest
		ln := &s.lanes[h.lane&uint32(len(s.lanes)-1)]
		ln.lat[wallBucket].Add(1)
		ln.lastSeen.Store(h.start.UnixNano())
		now = time.Now()
		ln.execs.Add(1)
		ln.execCPU.Add(execCPU)
		ln.rows.Add(rows)
		ln.wallNanos.Add(int64(now.Sub(h.start)))
		ln.monNanos.Add(int64(now.Sub(t0)))
		// A sensor that read nothing spares its locked add.
		addNonzero(&ln.execIO, execIO)
		addNonzero(&ln.optNanos, int64(h.optTime))
		addNonzero(&ln.errs, errs)
	} else {
		h.digest = h.statementDigest()
		now = m.stmts.commit(h, wallBucket, t0, WorkloadEntry{
			OptTime: h.optTime, ExecCPU: execCPU, ExecIO: execIO,
			EstCPU: h.est.CPU, EstIO: h.est.IO, EstRows: h.est.Rows,
			Rows: rows, Errors: errs, Executions: 1,
		})
	}
	wall, mon := now.Sub(h.start), int64(now.Sub(t0))

	// Cumulative totals. The wall histogram's sum is the statement count,
	// and bucket by bucket it is the sum of the statements' histograms.
	tl := &m.totals[h.lane&uint32(len(m.totals)-1)]
	tl.wallHist.buckets[wallBucket].Add(1)
	tl.optHist.record(h.optTime)
	tl.wallNanos.Add(int64(wall))
	tl.monNanos.Add(mon)
	addNonzero(&tl.optNanos, int64(h.optTime))

	if s != nil && s.retired.Load() {
		// Evicted from the table, or superseded, since the entry was
		// published: hand back what this execution added and count in a
		// fresh Shape from now on. The check comes after the last add to
		// the Shape, so nothing is stranded in it.
		h.cell.Store(m.stmts.republish(s))
	}

	// Phase 2: latch the wall time for flagged statements. The wait
	// breakdown itself is committed by FlushWaits, which the engine
	// calls once every wait source (including the autocommit durability
	// wait, which runs after some Finish call sites) has accumulated.
	// h.profiled is only ever set through Profiled(), which the engine
	// calls when the flag set is non-empty, so the idle path skips this
	// without even a load.
	if h.profiled {
		h.wallNs = int64(wall)
	}
}

func addNonzero(c *atomic.Int64, v int64) {
	if v != 0 {
		c.Add(v)
	}
}

// WorkloadDepth returns the number of evicted statement entries whose
// sums wait for a landed row: at most StatementCapacity.
func (m *Monitor) WorkloadDepth() int64 {
	t := &m.stmts
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(len(t.gone))
}

// WorkloadDropped returns the executions whose costs were lost because
// their evicted entry was pushed out of the full FIFO of evicted entries
// before a row carried them — only while the daemon cannot persist.
func (m *Monitor) WorkloadDropped() int64 {
	t := &m.stmts
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lost.Executions
}

// TotalStatements returns the cumulative number of monitored
// executions: the total of the global wall histogram. It takes no lock.
func (m *Monitor) TotalStatements() int64 {
	var n int64
	for i := range m.totals {
		n += m.totals[i].wallHist.total()
	}
	return n
}

// TotalMonitorTime returns the cumulative time spent inside sensors.
// It takes no lock.
func (m *Monitor) TotalMonitorTime() time.Duration {
	var n int64
	for i := range m.totals {
		n += m.totals[i].monNanos.Load()
	}
	return time.Duration(n)
}
