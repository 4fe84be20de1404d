package engine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/monitor"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/stage"
	"repro/internal/storage"
)

// ErrWriteConflict is returned (wrapped) when first-updater-wins
// conflict detection aborts a transaction: another transaction
// committed a newer version of a row this one tried to write.
var ErrWriteConflict = errors.New("engine: write conflict, transaction aborted")

// Session is one client connection. Sessions are not safe for
// concurrent use; open one per goroutine.
//
// Statements run under snapshot isolation: each statement (or each
// Begin..Commit transaction) captures an MVCC snapshot and sees exactly
// the versions committed when it was taken. A statement takes no lock to
// read: it names its tables in the session's slot, which keeps DDL off
// them (admit.go), and never blocks on writers. Writers take exclusive
// row locks on the versions they supersede, held until Commit or
// Rollback, and a table's statement write gate while they write;
// write-write conflicts abort with ErrWriteConflict (first-updater-wins)
// and lock cycles with lock.ErrDeadlock. Inside Begin..Commit the slot
// keeps naming every table the transaction touched until it ends.
type Session struct {
	db     *DB
	id     int64
	closed bool
	inTxn  bool
	// txnID is the MVCC transaction id, allocated lazily at the first
	// write of the transaction (0 = read-only so far).
	txnID uint64
	// slot is the session's admission entry; held is what it names for
	// the open transaction (nil outside one, or before its first
	// statement).
	slot slot
	held *[]string
	// snap is the current visibility snapshot, &snapBuf while one is
	// active: statement-scoped in autocommit, transaction-scoped inside
	// Begin..Commit. snapBuf is reused by every statement.
	snap    *snapshot
	snapBuf snapshot
	// deltas accumulates the transaction's net row-count change per
	// table; applied to the heap counters only at commit, so aborted
	// inserts never show up in Rows().
	deltas map[string]int64
	// clk is the stage clock of the executing statement when the session
	// samples it (clkBuf), else nil. The session samples its first
	// monitored statement and every samplePeriod-th after it; sampleN
	// counts down to the next.
	clk     *stage.Clock
	clkBuf  stage.Clock
	sampleN uint32
	// parallel is the maximum intra-query worker count for morsel-driven
	// plan subtrees; defaults to min(GOMAXPROCS, 8), adjustable with
	// SET PARALLEL n or SetParallel. 1 keeps execution serial.
	parallel int

	// Statement-path scratch, reused by every statement of the session:
	// the scanner's token, shape-key and literal buffers, the parameter
	// vector a cache hit binds its literals into, and the storage adapter
	// handed to the executor. None of it outlives the statement — results
	// copy what they keep.
	scan   sqlparser.Scanner
	params []sqltypes.Value
	// h is the executing statement's monitor handle, a field so that the
	// kind table's run functions can take it without moving it to the
	// heap.
	h      monitor.Handle
	store  executorStorage
	result resultIter // a sampled statement's result copy
	// cacheGen is the statement cache's generation at this statement's
	// lookup (see stmtCache.gen).
	cacheGen uint64
}

// stagePeriod is the sampling period of stage attribution. A session
// samples its first statement so that short sessions are seen too.
const stagePeriod = 64

// samplePeriod is stagePeriod; tests set it to 1 to sample every
// statement.
var samplePeriod uint32 = stagePeriod

// maxSessionParallel caps SET PARALLEL; the executor enforces the same
// bound on its worker pool.
const maxSessionParallel = 64

// SetParallel sets the session's maximum intra-query parallel degree
// for morsel-driven plan subtrees. Values below 1 mean serial; values
// above the cap are clamped.
func (s *Session) SetParallel(n int) { s.parallel = max(1, min(n, maxSessionParallel)) }

// Parallel reports the session's current parallel degree.
func (s *Session) Parallel() int { return s.parallel }

// defaultParallel is the issue-specified session default:
// min(GOMAXPROCS, 8) workers.
func defaultParallel() int { return max(1, min(runtime.GOMAXPROCS(0), 8)) }

// effectiveParallel bounds the session's degree by the buffer pool:
// every morsel worker may hold a full batch pin window, so workers
// whose windows cover the pool could pin every frame and starve each
// other — and any concurrent session — until the pin-wait timeout. One
// window stays free as headroom; a pool that cannot spare it runs the
// scan serially.
func (s *Session) effectiveParallel() int {
	fit := s.db.PoolCapacity()/storage.MaxBatchPins - 1
	return max(1, min(s.parallel, fit))
}

// Begin starts a transaction: one snapshot covers all its statements
// and its row locks and tables are held until Commit or Rollback. Nested
// BEGIN is an error — the already-open transaction is left untouched.
func (s *Session) Begin() error {
	if s.inTxn {
		return fmt.Errorf("engine: BEGIN inside an open transaction")
	}
	s.inTxn = true
	return nil
}

// Commit ends the transaction: the MVCC commit record is appended and
// made durable (flushing the log, or riding the flush of a committer
// ahead of it), the transaction leaves the in-flight set — making its
// versions visible to new snapshots — and its locks are released. A durability failure aborts
// the transaction instead: its versions stay invisible.
func (s *Session) Commit() error {
	err := s.endTxn(true)
	s.inTxn = false
	return err
}

// Rollback aborts the transaction: its id joins the aborted set, so
// every version it wrote is invisible to all snapshots — no physical
// undo happens; vacuum reclaims the versions later. Locks are released.
func (s *Session) Rollback() {
	s.endTxn(false)
	s.inTxn = false
}

// endTxn finishes the session's MVCC scope: commit or abort the open
// transaction id, apply (or drop) its row-count deltas, release its
// snapshot, its tables and its row locks. Safe to call with no
// transaction open — it then just releases snapshot and tables
// (read-only statement end), touching no mutex.
func (s *Session) endTxn(commit bool) error {
	db := s.db
	var err error
	if s.txnID != 0 {
		if commit {
			// The commit record must be durable before the transaction
			// leaves the in-flight set: once visible, its effects must
			// survive a crash.
			err = db.wal.CommitTxn(s.txnID, true)
		}
		if commit && err == nil {
			db.txns.commit(s.txnID)
			for t, d := range s.deltas {
				if h := db.handle(t); h != nil && d != 0 {
					h.heap.AdjustRows(d)
					db.syncMeta(h)
				}
			}
		} else {
			db.txns.abort(s.txnID)
		}
		// Only a writer locks, and every writer has an id.
		db.locks.ReleaseAll(s.id)
		s.txnID = 0
	}
	s.deltas = nil
	if s.snap != nil {
		s.slot.xmin.Store(0)
		s.snap = nil
	}
	s.slot.tables.Store(nil)
	s.held = nil
	return err
}

// enter admits the statement to its tables (admit.go). Inside a
// transaction the slot names the union of the statement's tables and the
// ones the transaction holds, which it holds from then on.
func (s *Session) enter(p *prepared) {
	want := &p.scope
	if s.held != nil {
		want = s.held
		if slices.ContainsFunc(p.scope, func(t string) bool { return !slices.Contains(*s.held, t) }) {
			u := slices.Concat(*s.held, p.scope)
			slices.Sort(u)
			u = slices.Compact(u)
			want = &u
		}
	}
	s.db.admit(&s.slot, want, s.held)
	if s.inTxn {
		s.held = want
	}
}

// ensureSnapshot captures the session's visibility snapshot if none is
// active (first statement of a transaction, or any autocommit
// statement), once the statement is admitted. The slot announces the
// floor of the published state before the snapshot loads the state
// again — ids only grow, so that floor is no higher than the snapshot's
// (vacuumHorizon relies on the order). taken is the statement's start,
// when the monitor read the clock.
func (s *Session) ensureSnapshot(taken time.Time) {
	if s.snap != nil {
		return
	}
	s.slot.xmin.Store(s.db.txns.state.Load().xmin)
	s.db.txns.capture(&s.snapBuf, s.txnID)
	var ns int64
	if !taken.IsZero() {
		ns = taken.UnixNano()
	}
	s.slot.taken.Store(ns)
	s.snap = &s.snapBuf
}

// ensureTxnID allocates the MVCC transaction id at the first write.
func (s *Session) ensureTxnID() uint64 {
	if s.txnID == 0 {
		s.txnID = s.db.txns.begin()
		if s.snap != nil {
			s.snap.setSelf(s.txnID)
		}
	}
	return s.txnID
}

// addDelta accumulates a table's net row-count change.
func (s *Session) addDelta(table string, d int64) {
	if s.deltas == nil {
		s.deltas = map[string]int64{}
	}
	s.deltas[strings.ToLower(table)] += d
}

// NewSession opens a session.
func (db *DB) NewSession() *Session {
	cur := db.currentSessions.Add(1)
	for {
		peak := db.peakSessions.Load()
		if cur <= peak || db.peakSessions.CompareAndSwap(peak, cur) {
			break
		}
	}
	s := &Session{db: db, id: db.nextSession.Add(1), parallel: defaultParallel()}
	db.slots.Store(&s.slot, nil)
	return s
}

// runPrepared executes a compiled plan and returns the materialized
// result rows.
func (s *Session) runPrepared(prep *executor.Prepared, ctx *executor.Ctx) ([]sqltypes.Row, error) {
	ctx.Parallel = s.effectiveParallel()
	defer func() {
		// Parallel-execution telemetry lands in the engine counters even
		// when the statement fails after fanning out.
		if ctx.ParallelRuns > 0 {
			s.db.parallelQueries.Add(1)
			s.db.morselsDispatched.Add(ctx.Morsels)
			s.db.parallelWorkerNanos.Add(ctx.WorkerNanos)
		}
	}()
	s.store = executorStorage{db: s.db, clk: s.clk, snap: s.snap}
	it, err := prep.Run(&s.store, ctx)
	if err != nil {
		return nil, err
	}
	if s.clk == nil {
		return executor.Collect(it)
	}
	// Collect copies each batch out between two NextBatch calls.
	s.result = resultIter{it: it, clk: s.clk}
	rows, err := executor.Collect(&s.result)
	s.result = resultIter{} // the pipeline is the statement's alone
	return rows, err
}

// resultIter charges the pipeline's batches to stage.Exec and the time
// between them, when Collect copies the rows out, to stage.Result.
type resultIter struct {
	it  executor.RowBatchIter
	clk *stage.Clock
}

func (r *resultIter) NextBatch(b *executor.Batch) (bool, error) {
	r.clk.Switch(stage.Exec)
	ok, err := r.it.NextBatch(b)
	r.clk.Switch(stage.Result)
	return ok, err
}

func (r *resultIter) Close() error {
	r.clk.Switch(stage.Exec)
	return r.it.Close()
}

// Close releases the session. An open transaction is aborted, as with
// Rollback: its versions become invisible.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.endTxn(false)
	s.db.slots.Delete(&s.slot)
	s.db.currentSessions.Add(-1)
}

// Result is the outcome of one statement.
type Result struct {
	// Columns names the result columns of a SELECT; shared with the
	// statement cache — read-only.
	Columns []string
	// Rows belong to the caller: nothing in them aliases session or
	// cache memory.
	Rows         []sqltypes.Row
	RowsAffected int64
	// Plan is the optimizer plan for SELECTs (nil for other
	// statements); shared with the statement cache — read-only.
	Plan *optimizer.Plan
}

// Exec prepares, plans and executes one SQL statement. This is the
// monitored statement path of the paper's Figure 2: wallclock start,
// parser sensor, optimizer sensor, execution cost sensor, wallclock
// stop. A statement whose shape was seen before skips the parser and
// the optimizer (see prepared.go).
func (s *Session) Exec(sql string) (*Result, error) {
	db := s.db
	tick := db.statements.Add(1)

	s.h = db.mon.StartStatement(sql)
	h := &s.h
	s.clk = nil
	if h.Live() {
		if s.sampleN == 0 {
			s.sampleN = samplePeriod
			s.clk = h.Sample(&s.clkBuf)
		}
		s.sampleN--
	}
	p, params, err := s.prepare(sql, tick, h)
	if err != nil {
		h.Finish(0, 0, 0, err)
		return nil, err
	}

	s.clk.Switch(stage.Admit)
	if p.kind.class == classDDL {
		// DDL implicitly commits the open transaction, so the session
		// holds nothing while its run waits for its tables.
		if err := s.endTxn(true); err != nil {
			return nil, s.abort(h, err)
		}
		s.inTxn = false
	} else {
		s.enter(p)
		if p.key != "" && s.cacheGen != db.plans.gen.Load() {
			// DDL dropped the cache between this statement's lookup and
			// its admission: what the entry holds (a plan over an index or
			// a storage structure) may be gone. Admitted, nothing can
			// change any more, so parse and plan afresh — the same tables,
			// hence the same admission.
			db.plans.staleReparses.Add(1)
			s.clk.Switch(stage.Parse)
			if p, params, err = s.parse(tick, h); err != nil {
				return nil, s.abort(h, err)
			}
		}
		// The visibility snapshot: captured once admitted so a schema
		// change cannot slide under it. One snapshot per statement in
		// autocommit; per transaction inside Begin..Commit.
		s.clk.Switch(stage.Snapshot)
		s.ensureSnapshot(h.Started())
	}

	s.clk.Switch(stage.Exec)
	res, cost, err := p.kind.run(s, call{p: p, params: params, h: h, tick: tick})
	s.clk.Switch(stage.Durable)
	if !s.inTxn {
		// Autocommit: commit (or abort) the statement's MVCC transaction;
		// the commit record's durability wait covers the statement's log
		// records. A pure read has no transaction id and just drops its
		// snapshot and tables.
		if eerr := s.endTxn(err == nil); eerr != nil && err == nil {
			err = eerr
		}
	} else if err != nil && p.kind.class == classWrite {
		// A failed write statement aborts the whole transaction: with no
		// statement-level undo, the abort is what keeps its partial
		// effects invisible.
		s.endTxn(false)
		s.inTxn = false
	}
	// The sensors stop after the commit, so a write's time includes its
	// durability wait; a SELECT or EXPLAIN ANALYZE has stopped them
	// already, and Finish is then a no-op.
	if err != nil {
		h.Finish(0, 0, 0, err)
		return nil, err
	}
	h.Finish(cost.cpu, cost.io, cost.rows, nil)
	return res, nil
}

// abort ends a statement that failed before its run, and with it the
// whole transaction: versions it wrote become invisible.
func (s *Session) abort(h *monitor.Handle, err error) error {
	s.endTxn(false)
	s.inTxn = false
	h.Finish(0, 0, 0, err)
	return err
}

// execSet applies a session configuration statement (SET <name> <n>).
func (s *Session) execSet(st *sqlparser.SetStmt, _ call) (*Result, execCost, error) {
	if st.Name != "parallel" {
		return nil, execCost{}, fmt.Errorf("engine: unknown SET option %q", st.Name)
	}
	s.SetParallel(int(st.Value))
	return &Result{}, execCost{}, nil
}

// execSelect runs a SELECT. A statement prepared before brings its plan
// and compiled pipeline; the first of its shape is planned, compiled and
// — when it has a shape key — published for the ones after it. It stops
// the handle's sensors itself, before the statement ends.
func (s *Session) execSelect(st *sqlparser.SelectStmt, c call) (*Result, execCost, error) {
	db, p, h := s.db, c.p, c.h
	if p.prep == nil {
		from := s.clk.Switch(stage.Plan)
		t0 := time.Now()
		plan, err := optimizer.PlanSelect(st, db.catalogView(), optimizer.Options{Params: c.params})
		if err != nil {
			return nil, execCost{}, err
		}
		prep, err := executor.Compile(plan)
		if err != nil {
			return nil, execCost{}, err
		}
		h.Optimized(plan.Est.CPU, plan.Est.IO, plan.Est.Rows, plan.Attributes, plan.UsedIndexes, time.Since(t0))
		p.plan, p.prep = plan, prep // p is this session's alone until published
		p.columns = make([]string, len(prep.Columns()))
		for i, col := range prep.Columns() {
			p.columns[i] = col.Name
		}
		db.publish(p, plan, c.tick)
		p.observe(h, s.id)
		s.clk.Switch(from)
	} else {
		// Cache hit: the optimizer was bypassed entirely; estimates
		// come from the cached plan.
		h.Optimized(p.plan.Est.CPU, p.plan.Est.IO, p.plan.Est.Rows, p.plan.Attributes, p.plan.UsedIndexes, 0)
	}

	// The execution sensor: tuples produced and the buffer-pool misses
	// and page writes during the run (read only for a live handle).
	ctx := executor.Ctx{Params: c.params}
	io0 := s.poolIO(h)
	rows, err := s.runPrepared(p.prep, &ctx)
	h.Finish(ctx.Tuples, s.poolIO(h)-io0, int64(len(rows)), err)
	if err != nil {
		return nil, execCost{}, err
	}
	return &Result{Columns: p.columns, Rows: rows, Plan: p.plan}, execCost{}, nil
}

// execExplain handles the SQL form of EXPLAIN: it plans the embedded
// SELECT (optionally admitting virtual indexes with WHATIF) and returns
// the rendered plan as rows. ANALYZE also executes the statement with
// the per-operator span collector attached, pushes the trace into the
// monitor's trace ring (ima_spans) and annotates every operator with
// actual rows, inclusive time and calls next to the estimates; it
// bypasses the statement cache — the point is to observe a full
// plan+execute cycle — and stops the handle's sensors itself.
func (s *Session) execExplain(st *sqlparser.ExplainStmt, c call) (*Result, execCost, error) {
	if st.Analyze && st.WhatIf {
		return nil, execCost{}, fmt.Errorf("engine: EXPLAIN WHATIF ANALYZE is not supported (virtual indexes cannot be executed)")
	}
	db, h := s.db, c.h
	t0 := time.Now()
	plan, err := optimizer.PlanSelect(st.Select, db.catalogView(), optimizer.Options{
		Params:             c.params,
		WithVirtualIndexes: st.WhatIf,
	})
	if err != nil {
		return nil, execCost{}, err
	}
	res := &Result{Columns: []string{"plan"}, Plan: plan}
	add := func(format string, args ...any) {
		res.Rows = append(res.Rows, sqltypes.Row{sqltypes.NewText(fmt.Sprintf(format, args...))})
	}
	estimated := func() {
		add("estimated: cpu=%.0f io=%.0f rows=%.0f total=%.1f", plan.Est.CPU, plan.Est.IO, plan.Est.Rows, plan.Est.Total())
	}
	if !st.Analyze {
		for _, line := range strings.Split(strings.TrimRight(plan.String(), "\n"), "\n") {
			add("%s", line)
		}
		estimated()
		return res, execCost{rows: int64(len(res.Rows))}, nil
	}
	prep, err := executor.Compile(plan)
	if err != nil {
		return nil, execCost{}, err
	}
	optTime := time.Since(t0)
	h.Optimized(plan.Est.CPU, plan.Est.IO, plan.Est.Rows, plan.Attributes, plan.UsedIndexes, optTime)

	tr := prep.NewTrace()
	ctx := executor.Ctx{Params: c.params, Trace: tr}
	m0, w0 := db.pool.IOCounts()
	start := time.Now()
	rows, err := s.runPrepared(prep, &ctx)
	wall := time.Since(start)
	m1, w1 := db.pool.IOCounts()
	ioDelta := (m1 - m0) + (w1 - w0)
	h.Finish(ctx.Tuples, ioDelta, int64(len(rows)), err)
	if err != nil {
		return nil, execCost{}, err
	}

	metas := prep.SpanMetas()
	selfNs := executor.SelfTimes(metas, tr.Counts)
	if db.mon != nil && db.mon.Enabled() {
		spans := make([]monitor.TraceSpan, len(metas))
		for i, m := range metas {
			n := tr.Counts[i]
			spans[i] = monitor.TraceSpan{
				Op: m.Kind, Detail: m.Detail, Depth: m.Depth, EstRows: m.EstRows,
				Rows: n.Rows, Nanos: n.Nanos, SelfNanos: selfNs[i], Calls: n.Calls,
			}
		}
		db.mon.RecordTrace(monitor.Trace{
			Hash:  c.p.digest,
			Text:  c.p.text,
			Start: start,
			Wall:  wall,
			Rows:  int64(len(rows)),
			Spans: spans,
		})
	}
	for i, m := range metas {
		n := tr.Counts[i]
		line := strings.Repeat("  ", m.Depth) + m.Kind
		if m.Detail != "" {
			line += " " + m.Detail
		}
		add("%s (est rows=%.0f) (actual rows=%d time=%s self=%s nexts=%d)",
			line, m.EstRows, n.Rows, time.Duration(n.Nanos).Round(time.Microsecond),
			time.Duration(selfNs[i]).Round(time.Microsecond), n.Calls)
	}
	estimated()
	add("actual: wall=%s opt=%s rows=%d tuples=%d io=%d",
		wall.Round(time.Microsecond), optTime.Round(time.Microsecond), len(rows), ctx.Tuples, ioDelta)
	return res, execCost{}, nil
}

// Explain plans a SELECT without executing it and returns the plan,
// optionally admitting virtual indexes (what-if mode).
func (s *Session) Explain(sql string, withVirtual bool) (*optimizer.Plan, error) {
	parsed, err := sqlparser.ParseNormalized(sql)
	if err != nil {
		return nil, err
	}
	st, ok := parsed.Stmt.(*sqlparser.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("engine: EXPLAIN supports SELECT only")
	}
	return optimizer.PlanSelect(st, s.db.catalogView(), optimizer.Options{
		Params:             parsed.Params,
		WithVirtualIndexes: withVirtual,
	})
}

// catalogView adapts the DB to the optimizer's CatalogView.
func (db *DB) catalogView() optimizer.CatalogView { return catView{db} }

type catView struct{ db *DB }

func (v catView) Table(name string) *catalog.Table {
	if vt := v.db.virtualTable(name); vt != nil {
		return vt.meta
	}
	return v.db.cat.Table(name)
}

func (v catView) TableIndexes(name string, withVirtual bool) []*catalog.Index {
	return v.db.cat.TableIndexes(name, withVirtual)
}

func (v catView) Histogram(table, col string) *catalog.Histogram {
	return v.db.cat.Histogram(table, col)
}

func (v catView) TableStats(name string) (optimizer.TableStats, bool) {
	if vt := v.db.virtualTable(name); vt != nil {
		return optimizer.TableStats{Rows: vt.meta.Rows, Pages: 1}, true
	}
	h := v.db.handle(name)
	if h == nil {
		return optimizer.TableStats{}, false
	}
	st := optimizer.TableStats{Rows: h.heap.Rows(), Pages: h.heap.Pages()}
	if h.primary != nil {
		if ht, err := h.primary.Height(); err == nil {
			st.BTreeHeight = ht
		}
	}
	return st, true
}

func (v catView) IndexStats(name string) (optimizer.IndexStats, bool) {
	ix := v.db.cat.Index(name)
	if ix == nil || ix.Virtual {
		return optimizer.IndexStats{}, false
	}
	h := v.db.handle(ix.Table)
	if h == nil {
		return optimizer.IndexStats{}, false
	}
	bt := h.indexes[strings.ToLower(name)]
	if bt == nil {
		return optimizer.IndexStats{}, false
	}
	height, err := bt.Height()
	if err != nil {
		return optimizer.IndexStats{}, false
	}
	return optimizer.IndexStats{Pages: bt.File().Pages(), Height: height}, true
}
