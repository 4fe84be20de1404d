package engine

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/executor"
	"repro/internal/expr"
	"repro/internal/monitor"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/stage"
	"repro/internal/storage"
)

// MVCC write protocol. Every UPDATE and DELETE runs in five phases (an
// INSERT, which supersedes nothing, only in phases 3 and 5):
//
//  1. Match through the access path: the WHERE is planned once per
//     statement shape, as the SELECT with that WHERE on the one table
//     would be (dmlPlanOf). An index probe walks its key range and
//     fetches each entry's version; a heap scan reads every version.
//     Either way only versions visible to the statement's snapshot that
//     satisfy the full WHERE match — an index range only nominates
//     candidates — and the (tid, row) pairs are collected without any
//     row lock, sorted by TID and deduplicated.
//  2. Row locks: an exclusive row lock is taken per matched version, in
//     ascending TID order, held until the transaction commits or
//     aborts. Readers never take these.
//  3. Statement write gate: the statement opens its WAL unit, then takes
//     one exclusive per-table gate that serializes the physical
//     write-out of concurrent statements — it is what makes version
//     headers stable for the rechecks and keeps the per-file
//     WAL-transaction attachment single-writer. The gate is released at
//     the end of the statement, after the WAL unit is finished.
//  4. Recheck: under the gate each locked version's header is reread.
//     A committed (or in-flight) superseding writer means another
//     transaction got there first: the statement fails with
//     ErrWriteConflict and the whole transaction aborts
//     (first-updater-wins). An aborted xmax is overwritten.
//  5. Write-out: updates stamp xmax on the old version and insert a new
//     one chained to it; deletes only stamp xmax. Old index entries stay
//     until vacuum — scans filter by visibility.
//
// A gate holder never waits on a row lock (locks are taken before the
// gate), so gate waits cannot extend deadlock cycles; row-lock cycles
// are caught by the lock manager's wait-for graph. Nor does a WAL unit
// holder: the unit is opened after the row locks, so a DDL waiting for
// the WAL's exclusive gate never waits on a transaction (admit.go).

// rowLockKey names the row-level write-lock resource of (table, tid).
// The "r!" prefix keeps it disjoint from table names.
func rowLockKey(table string, tid storage.TID) string {
	return "r!" + table + "!" + strconv.FormatUint(uint64(tid), 16)
}

// writeGateKey names the per-table statement write gate.
func writeGateKey(table string) string { return "w!" + table }

// acquireLock takes a lock for the session, charged to LockWait.
func (s *Session) acquireLock(resource string) error {
	from := s.clk.Switch(stage.LockWait)
	err := s.db.locks.Acquire(s.id, resource)
	s.clk.Switch(from)
	return err
}

// conflictErr counts and builds a first-updater-wins conflict error.
func (db *DB) conflictErr(format string, args ...any) error {
	db.txns.conflicts.Add(1)
	return fmt.Errorf("%w: %s", ErrWriteConflict, fmt.Sprintf(format, args...))
}

// withWriteGate runs fn holding the table's statement write gate with
// the statement's WAL unit attached to the table's files. The unit is per
// statement even inside a transaction (transaction atomicity comes from
// the MVCC commit record), opened before the gate — a gate holder never
// waits for the WAL — and finished, not yet durable, before the gate is
// released, so the next writer's attachment never overlaps this one's
// unfinished page captures. Opening and finishing the unit are charged
// to WAL; fn charges its own stages.
func (s *Session) withWriteGate(th *tableHandle, fn func() error) error {
	db := s.db
	from := s.clk.Switch(stage.WAL)
	wtx := db.wal.Begin()
	wtx.SetOwner(s.txnID)
	s.clk.Switch(from)
	gate := writeGateKey(strings.ToLower(th.meta.Name))
	err := s.acquireLock(gate)
	if err == nil {
		detach := db.attachWalTxn(th, wtx)
		err = fn()
		detach()
	}
	s.clk.Switch(stage.WAL)
	if ferr := wtx.Commit(false); ferr != nil && err == nil {
		err = ferr
	}
	s.clk.Switch(from)
	db.locks.Release(s.id, gate)
	return err
}

// evalConst evaluates an expression with no row context (INSERT
// values).
func evalConst(e sqlparser.Expr, params []sqltypes.Value) (sqltypes.Value, error) {
	c, err := expr.Bind(e, noColumns{})
	if err != nil {
		return sqltypes.Value{}, err
	}
	return c.Eval(&expr.Env{Params: params})
}

type noColumns struct{}

func (noColumns) Resolve(table, column string) (int, sqltypes.Type, error) {
	return 0, 0, fmt.Errorf("engine: column references are not allowed here")
}

// execCost is what a statement's execution sensor reports: for a write
// the versions examined (INSERT: rows written), buffer-pool I/O and the
// rows changed.
type execCost struct{ cpu, io, rows int64 }

func (s *Session) execInsert(st *sqlparser.InsertStmt, c call) (*Result, execCost, error) {
	db := s.db
	th := db.handle(st.Table)
	if th == nil {
		return nil, execCost{}, fmt.Errorf("engine: unknown table %q", st.Table)
	}
	schema := th.meta.Schema
	self := s.ensureTxnID()

	// Column mapping: position i of the VALUES row goes to colMap[i].
	colMap := make([]int, 0, schema.Len())
	if len(st.Columns) == 0 {
		for i := 0; i < schema.Len(); i++ {
			colMap = append(colMap, i)
		}
	} else {
		for _, c := range st.Columns {
			idx := schema.ColIndex(c)
			if idx < 0 {
				return nil, execCost{}, fmt.Errorf("engine: unknown column %s.%s", st.Table, c)
			}
			colMap = append(colMap, idx)
		}
	}

	// Evaluate all rows before taking the gate: expression errors should
	// not cost serialization.
	rows := make([]sqltypes.Row, 0, len(st.Rows))
	for _, valueRow := range st.Rows {
		if len(valueRow) != len(colMap) {
			return nil, execCost{}, fmt.Errorf("engine: INSERT row has %d values, expected %d", len(valueRow), len(colMap))
		}
		row := make(sqltypes.Row, schema.Len())
		for i := range row {
			row[i] = sqltypes.NullValue()
		}
		for i, e := range valueRow {
			v, err := evalConst(e, c.params)
			if err != nil {
				return nil, execCost{}, err
			}
			row[colMap[i]] = v
		}
		coerced, err := coerceRow(schema, row)
		if err != nil {
			return nil, execCost{}, err
		}
		rows = append(rows, coerced)
	}

	var inserted int64
	err := s.withWriteGate(th, func() error {
		for _, row := range rows {
			if _, err := db.insertVersion(th, row, storage.VersionHeader{Xmin: self}, self, s.clk); err != nil {
				return err
			}
			inserted++
		}
		return nil
	})
	if err != nil {
		return nil, execCost{}, err
	}
	s.addDelta(th.meta.Name, inserted)
	return &Result{RowsAffected: inserted}, execCost{cpu: inserted, rows: inserted}, nil
}

// dmlPlan is what an UPDATE or DELETE shape derives once: its WHERE
// planned by the optimizer as the single-table SELECT with that WHERE
// would be, the leaf's key range when the plan probes an index, and the
// full WHERE and (UPDATE) the SET expressions bound against the table
// row. Immutable once its entry is published.
type dmlPlan struct {
	plan  *optimizer.Plan
	leaf  *optimizer.IndexScan // nil: the plan scans the heap
	keys  *executor.KeyRange
	where expr.Compiled // nil matches every row
	sets  []setExpr
}

// setExpr is one bound SET assignment: column offset and value.
type setExpr struct {
	idx int
	c   expr.Compiled
}

// dmlPlanOf returns the entry's plan, planning and publishing the entry
// on its first execution exactly as execSelect does for a SELECT: after
// admission, so the catalog the plan reads cannot change under the
// statement. A cache hit only reports the cached estimates.
func (s *Session) dmlPlanOf(th *tableHandle, where sqlparser.Expr, set []sqlparser.SetClause, c call) (*dmlPlan, error) {
	p, h := c.p, c.h
	if dp := p.dml; dp != nil {
		h.Optimized(dp.plan.Est.CPU, dp.plan.Est.IO, dp.plan.Est.Rows, dp.plan.Attributes, dp.plan.UsedIndexes, 0)
		return dp, nil
	}
	defer s.clk.Switch(s.clk.Switch(stage.Plan))
	t0 := time.Now()
	schema := th.meta.Schema
	res := &expr.SimpleResolver{}
	alias := strings.ToLower(th.meta.Name)
	for _, c := range schema.Columns {
		res.Cols = append(res.Cols, expr.ResolvedCol{Table: alias, Name: c.Name, Type: c.Type})
	}
	dp := &dmlPlan{}
	for _, sc := range set {
		idx := schema.ColIndex(sc.Column)
		if idx < 0 {
			return nil, fmt.Errorf("engine: unknown column %s.%s", th.meta.Name, sc.Column)
		}
		ce, err := expr.Bind(sc.Expr, res)
		if err != nil {
			return nil, err
		}
		dp.sets = append(dp.sets, setExpr{idx: idx, c: ce})
	}
	if where != nil {
		var err error
		if dp.where, err = expr.Bind(where, res); err != nil {
			return nil, err
		}
	}
	sel := &sqlparser.SelectStmt{Items: []sqlparser.SelectItem{{Star: true}},
		From: []sqlparser.TableRef{{Name: th.meta.Name}}, Where: where, Limit: -1}
	plan, err := optimizer.PlanSelect(sel, s.db.catalogView(), optimizer.Options{Params: c.params})
	if err != nil {
		return nil, err
	}
	dp.plan = plan
	leaf := plan.Root
	if pr, ok := leaf.(*optimizer.Project); ok {
		leaf = pr.Input
	}
	switch x := leaf.(type) {
	case *optimizer.IndexScan:
		dp.leaf = x
		if dp.keys, err = executor.CompileKeyRange(x); err != nil {
			return nil, err
		}
	case *optimizer.SeqScan:
	default:
		return nil, fmt.Errorf("engine: unexpected access path %T for a write", leaf)
	}
	p.dml = dp // p is this session's alone until published
	h.Optimized(plan.Est.CPU, plan.Est.IO, plan.Est.Rows, plan.Attributes, plan.UsedIndexes, time.Since(t0))
	s.db.publish(p, plan, c.tick)
	p.observe(h, s.id)
	return dp, nil
}

// match is one target version of a write: its TID and decoded row.
type match struct {
	tid storage.TID
	row sqltypes.Row
}

// matchRows is phase 1 of the write protocol: the versions visible to
// the session's snapshot that satisfy the WHERE, found through the
// plan's access path, in ascending TID order — the row-lock acquisition
// order. An index range only nominates candidates: each is fetched,
// filtered by visibility and tested against the full WHERE, and a TID
// two entries point at counts once. examined is how many versions the
// statement read.
func (s *Session) matchRows(th *tableHandle, dp *dmlPlan, params []sqltypes.Value) (ms []match, examined int64, err error) {
	env := expr.Env{Params: params}
	test := func(row sqltypes.Row) (bool, error) {
		if dp.where == nil {
			return true, nil
		}
		env.Row = row
		v, err := dp.where.Eval(&env)
		return v.Bool(), err
	}
	if dp.leaf == nil {
		examined, err = scanVisible(th, s.snap, s.clk, func(tid storage.TID, row sqltypes.Row) (bool, error) {
			ok, err := test(row)
			if ok && err == nil {
				ms = append(ms, match{tid, row.Clone()})
			}
			return err == nil, err
		})
		return ms, examined, err
	}
	lo, hi, ok, err := dp.keys.Bounds(&env)
	if err != nil || !ok {
		return nil, 0, err
	}
	bt := th.primary
	if !dp.leaf.Primary {
		bt = th.indexes[strings.ToLower(dp.leaf.Index)]
	}
	if bt == nil {
		return nil, 0, fmt.Errorf("engine: access path of %s has no storage", th.meta.Name)
	}
	f := versionFetcher{heap: th.heap, snap: s.snap, clk: s.clk}
	it := bt.SeekClock(lo, hi, s.clk)
	defer s.clk.Switch(s.clk.Switch(stage.BTree))
	for {
		tid, row, ok, err := f.next(it)
		if err != nil {
			return nil, f.fetched, err
		}
		if !ok {
			break
		}
		if ok, err = test(row); err != nil {
			return nil, f.fetched, err
		}
		if ok {
			ms = append(ms, match{tid, row})
		}
	}
	slices.SortFunc(ms, func(a, b match) int { return cmp.Compare(a.tid, b.tid) })
	ms = slices.CompactFunc(ms, func(a, b match) bool { return a.tid == b.tid })
	return ms, f.fetched, nil
}

// lockMatched acquires the exclusive row locks for the matched
// versions, in the ascending TID order matchRows returned them.
func (s *Session) lockMatched(th *tableHandle, ms []match) error {
	table := strings.ToLower(th.meta.Name)
	for _, m := range ms {
		if err := s.acquireLock(rowLockKey(table, m.tid)); err != nil {
			return err
		}
	}
	return nil
}

// recheckWritable rereads the header of a locked version under the
// write gate and decides its fate: write it (true), skip it silently
// (false — this transaction already superseded it), or fail with a
// write conflict (a competing transaction committed a newer version
// between this statement's snapshot and its lock acquisition).
func (db *DB) recheckWritable(th *tableHandle, tid storage.TID, self uint64) (bool, error) {
	rec, ok, err := th.heap.Get(tid)
	if err != nil {
		return false, err
	}
	if !ok || len(rec) < storage.VersionHeaderSize {
		return false, db.conflictErr("version %v of %s was reclaimed under the statement", tid, th.meta.Name)
	}
	hdr := storage.ReadVersionHeader(rec)
	switch {
	case hdr.Xmax == 0:
		return true, nil
	case hdr.Xmax == self:
		return false, nil // an earlier statement of this transaction superseded it
	case db.txns.stateOf(hdr.Xmax) == txnAborted:
		return true, nil // stale stamp of an aborted writer: overwrite
	default:
		// Committed — or, impossibly under the row lock, still in
		// flight — superseding writer: first updater wins.
		return false, db.conflictErr("row %v of %s superseded by transaction %d", tid, th.meta.Name, hdr.Xmax)
	}
}

// poolIO is the execution sensor's I/O figure so far: buffer-pool
// misses plus page writes, read only for a handle that records.
func (s *Session) poolIO(h *monitor.Handle) int64 {
	if !h.Live() {
		return 0
	}
	m, w := s.db.pool.IOCounts()
	return m + w
}

// execWrite runs an UPDATE (set non-empty) or a DELETE on table through
// the five phases of the write protocol.
func (s *Session) execWrite(table string, where sqlparser.Expr, set []sqlparser.SetClause, c call) (*Result, execCost, error) {
	db, params, h := s.db, c.params, c.h
	th := db.handle(table)
	if th == nil {
		return nil, execCost{}, fmt.Errorf("engine: unknown table %q", table)
	}
	dp, err := s.dmlPlanOf(th, where, set, c)
	if err != nil {
		return nil, execCost{}, err
	}
	self := s.ensureTxnID()
	io0 := s.poolIO(h)
	ms, examined, err := s.matchRows(th, dp, params)
	if err == nil {
		err = s.lockMatched(th, ms)
	}
	if err != nil {
		return nil, execCost{}, err
	}
	var affected int64
	env := expr.Env{Params: params}
	err = s.withWriteGate(th, func() error {
		s.clk.Switch(stage.Heap) // version rechecks, new rows and xmax stamps
		for _, m := range ms {
			writable, err := db.recheckWritable(th, m.tid, self)
			if err != nil {
				return err
			}
			if !writable {
				continue
			}
			var next sqltypes.Row
			if len(set) > 0 {
				next = m.row.Clone()
				env.Row = m.row
				for _, sc := range dp.sets {
					if next[sc.idx], err = sc.c.Eval(&env); err != nil {
						return err
					}
				}
				if next, err = coerceRow(th.meta.Schema, next); err != nil {
					return err
				}
			}
			// The superseded version only gets its deleter stamped: it
			// (and its index entries) stays for older snapshots until
			// vacuum. An update chains its new version to it.
			if err := th.heap.SetXmax(m.tid, self); err != nil {
				return err
			}
			if next != nil {
				if _, err := db.insertVersion(th, next, storage.VersionHeader{Xmin: self, Prev: m.tid}, self, s.clk); err != nil {
					return err
				}
			}
			affected++
		}
		return nil
	})
	if err != nil {
		return nil, execCost{}, err
	}
	if len(set) > 0 {
		s.addDelta(table, 0) // net row count unchanged; keep the table in the delta map
	} else {
		s.addDelta(table, -affected)
	}
	return &Result{RowsAffected: affected}, execCost{examined, s.poolIO(h) - io0, affected}, nil
}
