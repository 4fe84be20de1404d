package engine

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/expr"
	"repro/internal/monitor"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// MVCC write protocol. Every DML statement runs in five phases:
//
//  1. Snapshot scan: matching (tid, row) pairs are collected against
//     the statement's snapshot, without any row lock.
//  2. Row locks: an exclusive row lock is taken per matched version, in
//     TID order (the heap scan already yields ascending TIDs), held
//     until the transaction commits or aborts. Readers never take these.
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

// acquireLock takes a lock for the session, attributing wait time to a
// flagged statement's profiler.
func (s *Session) acquireLock(resource string, h *monitor.Handle) error {
	var t0 time.Time
	if s.prof != nil {
		t0 = time.Now()
	}
	err := s.db.locks.Acquire(s.id, resource)
	if s.prof != nil && h != nil {
		h.AddLockWait(time.Since(t0))
	}
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
// unfinished page captures.
func (s *Session) withWriteGate(th *tableHandle, h *monitor.Handle, fn func() error) error {
	db := s.db
	wtx := db.wal.Begin()
	wtx.SetOwner(s.txnID)
	wtx.SetProf(s.prof)
	gate := writeGateKey(strings.ToLower(th.meta.Name))
	err := s.acquireLock(gate, h)
	if err == nil {
		detach := db.attachWalTxn(th, wtx)
		err = fn()
		detach()
	}
	if ferr := wtx.Commit(false); ferr != nil && err == nil {
		err = ferr
	}
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

func (s *Session) execInsert(st *sqlparser.InsertStmt, params []sqltypes.Value, h *monitor.Handle) (*Result, error) {
	db := s.db
	th := db.handle(st.Table)
	if th == nil {
		return nil, fmt.Errorf("engine: unknown table %q", st.Table)
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
				return nil, fmt.Errorf("engine: unknown column %s.%s", st.Table, c)
			}
			colMap = append(colMap, idx)
		}
	}

	// Evaluate all rows before taking the gate: expression errors should
	// not cost serialization.
	rows := make([]sqltypes.Row, 0, len(st.Rows))
	for _, valueRow := range st.Rows {
		if len(valueRow) != len(colMap) {
			return nil, fmt.Errorf("engine: INSERT row has %d values, expected %d", len(valueRow), len(colMap))
		}
		row := make(sqltypes.Row, schema.Len())
		for i := range row {
			row[i] = sqltypes.NullValue()
		}
		for i, e := range valueRow {
			v, err := evalConst(e, params)
			if err != nil {
				return nil, err
			}
			row[colMap[i]] = v
		}
		coerced, err := coerceRow(schema, row)
		if err != nil {
			return nil, err
		}
		rows = append(rows, coerced)
	}

	var inserted int64
	err := s.withWriteGate(th, h, func() error {
		for _, row := range rows {
			if _, err := db.insertVersion(th, row, storage.VersionHeader{Xmin: self}, self); err != nil {
				return err
			}
			inserted++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.addDelta(th.meta.Name, inserted)
	return &Result{RowsAffected: inserted}, nil
}

// matchVisible scans a table and returns the TIDs and decoded rows of
// the versions visible to the session's snapshot that match the
// predicate (nil matches everything). TIDs come back in ascending
// (physical) order — the row-lock acquisition order.
func (s *Session) matchVisible(th *tableHandle, where sqlparser.Expr, params []sqltypes.Value) ([]storage.TID, []sqltypes.Row, error) {
	var pred expr.Compiled
	if where != nil {
		res := &expr.SimpleResolver{}
		alias := strings.ToLower(th.meta.Name)
		for _, c := range th.meta.Schema.Columns {
			res.Cols = append(res.Cols, expr.ResolvedCol{Table: alias, Name: c.Name, Type: c.Type})
		}
		var err error
		if pred, err = expr.Bind(where, res); err != nil {
			return nil, nil, err
		}
	}
	sn := s.snap
	env := expr.Env{Params: params}
	var tids []storage.TID
	var rows []sqltypes.Row
	it := th.heap.Iter()
	for {
		tid, rec, ok, err := it.Next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return tids, rows, nil
		}
		if len(rec) < storage.VersionHeaderSize {
			return nil, nil, fmt.Errorf("engine: unversioned record %v in %s", tid, th.meta.Name)
		}
		if !sn.visible(storage.ReadVersionHeader(rec)) {
			continue
		}
		row, err := sqltypes.DecodeRow(storage.VersionPayload(rec))
		if err != nil {
			return nil, nil, err
		}
		if pred != nil {
			env.Row = row
			v, err := pred.Eval(&env)
			if err != nil {
				return nil, nil, err
			}
			if !v.Bool() {
				continue
			}
		}
		tids = append(tids, tid)
		rows = append(rows, row)
	}
}

// lockMatched acquires the exclusive row locks for the matched TIDs (in
// the ascending order matchVisible returned them).
func (s *Session) lockMatched(th *tableHandle, tids []storage.TID, h *monitor.Handle) error {
	table := strings.ToLower(th.meta.Name)
	for _, tid := range tids {
		if err := s.acquireLock(rowLockKey(table, tid), h); err != nil {
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

func (s *Session) execUpdate(st *sqlparser.UpdateStmt, params []sqltypes.Value, h *monitor.Handle) (*Result, error) {
	db := s.db
	th := db.handle(st.Table)
	if th == nil {
		return nil, fmt.Errorf("engine: unknown table %q", st.Table)
	}
	schema := th.meta.Schema
	self := s.ensureTxnID()

	// Bind SET expressions against the table row.
	res := &expr.SimpleResolver{}
	alias := strings.ToLower(th.meta.Name)
	for _, c := range schema.Columns {
		res.Cols = append(res.Cols, expr.ResolvedCol{Table: alias, Name: c.Name, Type: c.Type})
	}
	type setC struct {
		idx int
		c   expr.Compiled
	}
	var sets []setC
	for _, sc := range st.Set {
		idx := schema.ColIndex(sc.Column)
		if idx < 0 {
			return nil, fmt.Errorf("engine: unknown column %s.%s", st.Table, sc.Column)
		}
		ce, err := expr.Bind(sc.Expr, res)
		if err != nil {
			return nil, err
		}
		sets = append(sets, setC{idx: idx, c: ce})
	}

	tids, rows, err := s.matchVisible(th, st.Where, params)
	if err != nil {
		return nil, err
	}
	if err := s.lockMatched(th, tids, h); err != nil {
		return nil, err
	}
	var affected int64
	env := expr.Env{Params: params}
	err = s.withWriteGate(th, h, func() error {
		for i, tid := range tids {
			writable, err := db.recheckWritable(th, tid, self)
			if err != nil {
				return err
			}
			if !writable {
				continue
			}
			old := rows[i]
			updated := old.Clone()
			env.Row = old
			for _, sc := range sets {
				v, err := sc.c.Eval(&env)
				if err != nil {
					return err
				}
				updated[sc.idx] = v
			}
			coerced, err := coerceRow(schema, updated)
			if err != nil {
				return err
			}
			if err := th.heap.SetXmax(tid, self); err != nil {
				return err
			}
			if _, err := db.insertVersion(th, coerced, storage.VersionHeader{Xmin: self, Prev: tid}, self); err != nil {
				return err
			}
			affected++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.addDelta(th.meta.Name, 0) // net row count unchanged; keep the table in the delta map
	return &Result{RowsAffected: affected}, nil
}

func (s *Session) execDelete(st *sqlparser.DeleteStmt, params []sqltypes.Value, h *monitor.Handle) (*Result, error) {
	db := s.db
	th := db.handle(st.Table)
	if th == nil {
		return nil, fmt.Errorf("engine: unknown table %q", st.Table)
	}
	self := s.ensureTxnID()
	tids, _, err := s.matchVisible(th, st.Where, params)
	if err != nil {
		return nil, err
	}
	if err := s.lockMatched(th, tids, h); err != nil {
		return nil, err
	}
	var affected int64
	err = s.withWriteGate(th, h, func() error {
		for _, tid := range tids {
			writable, err := db.recheckWritable(th, tid, self)
			if err != nil {
				return err
			}
			if !writable {
				continue
			}
			// Deletes only stamp the deleter: the version (and its index
			// entries) stays for older snapshots until vacuum.
			if err := th.heap.SetXmax(tid, self); err != nil {
				return err
			}
			affected++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.addDelta(th.meta.Name, -affected)
	return &Result{RowsAffected: affected}, nil
}
