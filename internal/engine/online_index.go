package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// backfillBatch is how many live rows (whole pages, so a few more) one
// backfill batch visits before writers get in and the side-log is
// replayed, so the final catch-up replays only the tail of concurrent
// DML.
const backfillBatch = 512

// sideLogEntry is one index mutation captured while an index build
// scans the heap: the already tid-suffixed key and its TID payload.
// Entries are appended under the table's statement write gate, so log
// order equals DML order.
type sideLogEntry struct {
	del bool
	key []byte
	val []byte
}

// indexSideLog accumulates the index maintenance an in-progress index
// build owes for DML that ran while it scanned. insertVersion and
// dropVersionIndexEntries append through the handle's atomic pointer; the builder replays
// it between backfill batches and a final time with the table drained. If
// computing a key fails the error is parked for the builder — the DML
// statement itself never fails because of a background build.
type indexSideLog struct {
	cols []string

	mu      sync.Mutex
	entries []sideLogEntry
	err     error
}

func (sl *indexSideLog) add(del bool, key, val []byte) {
	sl.mu.Lock()
	sl.entries = append(sl.entries, sideLogEntry{del: del, key: key, val: val})
	sl.mu.Unlock()
}

func (sl *indexSideLog) fail(err error) {
	sl.mu.Lock()
	if sl.err == nil {
		sl.err = err
	}
	sl.mu.Unlock()
}

// replaySideLog drains the accumulated entries (and any parked error)
// and applies them to the index in log order, without holding the log
// lock while it writes. Put overwrites and Delete tolerates missing keys,
// so an entry that races the backfill scan (both observed the same row)
// is idempotent.
func replaySideLog(sl *indexSideLog, bt *storage.BTree) error {
	sl.mu.Lock()
	entries, err := sl.entries, sl.err
	sl.entries = nil
	sl.mu.Unlock()
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.del {
			if _, err := bt.Delete(e.key); err != nil {
				return err
			}
		} else if err := bt.Put(e.key, e.val); err != nil {
			return err
		}
	}
	return nil
}

// logToSideLog is the insertVersion/dropVersionIndexEntries hook: if
// an index build is in progress on this table, record the index
// mutation it cannot see. The caller holds the table's statement write
// gate (or runs alone on the table, as DDL).
func logToSideLog(h *tableHandle, del bool, tid storage.TID, row sqltypes.Row) {
	sl := h.sideLog.Load()
	if sl == nil {
		return
	}
	key, err := keyFor(h.meta.Schema, row, sl.cols)
	if err != nil {
		sl.fail(err)
		return
	}
	sl.add(del, tidSuffix(key, tid), tidBytes(tid))
}

// execCreateIndex builds a secondary index without stalling the
// workload; a virtual index only enters the catalog. The build enters
// the DDL word for its whole duration in the building state, which
// keeps other DDL off the table but parks no statement. The catalog
// entry is registered with Building set (name reserved, index invisible
// to the optimizer and to DML maintenance), a side-log is installed
// under the table's statement write gate, the heap is backfilled a batch
// at a time while writers run (their index mutations land in the
// side-log), and the final catch-up + publish happens once the table has
// drained, behind the WAL's exclusive gate like other DDL. Uniqueness is
// verified in one pass over the finished index — checking per-row
// during the build would raise false duplicates for rows whose delete is
// still queued in the side-log. The index file is fsynced before the
// catalog clears Building, so a crash at any point leaves either a
// Building entry (dropped, with its file, at the next open) or a fully
// durable published index.
func (db *DB) execCreateIndex(st *sqlparser.CreateIndexStmt) (_ *Result, err error) {
	if st.Virtual {
		// Virtual indexes live only in the catalog: zero build cost,
		// zero storage — the optimizer may cost them in what-if mode.
		// The statement runs as drain-first DDL.
		if db.handle(st.Table) == nil {
			return nil, fmt.Errorf("engine: unknown table %q", st.Table)
		}
		if err := db.cat.AddIndex(&catalog.Index{
			Name: st.Name, Table: st.Table, Columns: st.Columns, Unique: st.Unique, Virtual: true,
		}); err != nil {
			return nil, err
		}
		db.plans.invalidate()
		return &Result{}, nil
	}
	tkey := strings.ToLower(st.Table)
	e := db.beginDDL([]string{tkey}, ddlBuilding)
	var walRelease func()
	defer func() {
		if walRelease != nil {
			walRelease()
		}
		db.setDDL(e, ddlDone)
	}()
	h := db.handle(st.Table)
	if h == nil {
		return nil, fmt.Errorf("engine: unknown table %q", st.Table)
	}
	ix := &catalog.Index{
		Name:     st.Name,
		Table:    st.Table,
		Columns:  st.Columns,
		Unique:   st.Unique,
		Building: true,
	}
	if err := db.cat.AddIndex(ix); err != nil {
		return nil, err
	}

	var (
		xf        *storage.File
		published bool
	)
	defer func() {
		if published {
			return
		}
		// Unified rollback: no failure may leak the side-log, the
		// half-built file or the reserved catalog entry.
		h.sideLog.Store(nil)
		if xf != nil {
			if rerr := xf.Remove(); rerr != nil {
				err = errors.Join(err, rerr)
			}
		}
		if derr := db.cat.DropIndex(st.Name); derr != nil {
			err = errors.Join(err, derr)
		}
		db.plans.invalidate()
	}()

	if xf, err = db.newFile(db.indexPath(st.Name)); err != nil {
		return nil, err
	}
	bt, err := storage.CreateBTree(xf)
	if err != nil {
		return nil, err
	}

	// Install the side-log holding the table's statement write gate: every
	// index mutation of the table happens under it (bulk loads and other
	// DDL wait out the build), so each one is either in the heap for the
	// scan to find or captured in the log.
	gateID := db.nextSession.Add(1)
	if err = db.locks.Acquire(gateID, writeGateKey(tkey)); err != nil {
		return nil, err
	}
	sl := &indexSideLog{cols: st.Columns}
	h.sideLog.Store(sl)
	db.locks.ReleaseAll(gateID)

	// Backfill a batch at a time, letting writers in between batches.
	// The scan resumes at the page after the last one it read, so it
	// visits every record that existed when it started and was not
	// deleted since. A record written behind it (in a slot vacuum freed)
	// is in the side-log, and one written ahead of it may be in both:
	// replaySideLog is idempotent.
	it := h.heap.ScanBatch(nil)
	var rb storage.RecBatch
	for more := true; more; {
		more, err = it.NextBatchMax(&rb, backfillBatch)
		for i := 0; err == nil && i < len(rb.Recs); i++ {
			err = backfillRecord(h, bt, st.Columns, rb.TIDs[i], rb.Recs[i])
		}
		it.Close()
		if err == nil {
			err = replaySideLog(sl, bt)
		}
		if err != nil {
			return nil, err
		}
	}

	// Final catch-up and publish with the table drained: no statement on
	// it is in flight and none can start, so the drained tail is complete
	// and the publish is atomic.
	e = db.runDDL(e)
	walRelease = db.wal.BeginExclusive()
	err = replaySideLog(sl, bt)
	h.sideLog.Store(nil)
	if err != nil {
		return nil, err
	}
	if st.Unique {
		if err = db.verifyUniqueLive(h, bt, st.Name); err != nil {
			return nil, err
		}
	}
	// Durability order: index file first, then the catalog flips
	// Building off. A crash in between leaves a Building entry, which
	// the next open drops along with the file.
	if err = bt.File().Sync(); err != nil {
		return nil, err
	}
	if err = db.cat.FinishIndexBuild(st.Name); err != nil {
		return nil, err
	}
	db.mu.Lock()
	h.indexes[strings.ToLower(st.Name)] = bt
	db.mu.Unlock()
	db.plans.invalidate()
	published = true
	if err = db.Checkpoint(); err != nil {
		// The index itself is durable (file synced, catalog saved);
		// surface the checkpoint failure without rolling it back.
		return nil, err
	}
	return &Result{}, nil
}

// backfillRecord enters one heap version into the index being built.
// Every version gets an entry — scans filter by visibility and vacuum
// removes entries with the versions, exactly as on the DML path.
func backfillRecord(h *tableHandle, bt *storage.BTree, cols []string, tid storage.TID, rec []byte) error {
	if len(rec) < storage.VersionHeaderSize {
		return fmt.Errorf("engine: unversioned record %v in %s", tid, h.meta.Name)
	}
	row, err := sqltypes.DecodeRow(storage.VersionPayload(rec), nil)
	if err != nil {
		return err
	}
	key, err := keyFor(h.meta.Schema, row, cols)
	if err != nil {
		return err
	}
	return bt.Put(tidSuffix(key, tid), tidBytes(tid))
}

// verifyUniqueLive walks a freshly built index once and checks the
// unique constraint against version state. Entries with the same key
// modulo the TID suffix are one candidate group; within a group each
// version is classified as dead (aborted creator, or committed
// deleter), live (committed creator, no surviving deleter), or pending
// (in-flight creator or in-flight deleter). Two live versions are a
// duplicate. A potential duplicate that hinges on a pending
// transaction cannot be resolved without waiting for it — the build
// fails with a retryable error instead of blocking under the DDL gate.
func (db *DB) verifyUniqueLive(h *tableHandle, bt *storage.BTree, name string) error {
	var (
		prev          []byte
		live, pending int
	)
	check := func() error {
		if live >= 2 {
			return fmt.Errorf("engine: duplicate key while building unique index %s", name)
		}
		if pending > 0 && live+pending >= 2 {
			return fmt.Errorf("engine: unique index %s build raced a concurrent transaction, retry", name)
		}
		return nil
	}
	it := bt.Seek(nil, nil)
	for it.Next() {
		k := it.Key()
		if len(k) < tidSuffixLen {
			return fmt.Errorf("engine: corrupt key in index %s", name)
		}
		stripped := k[:len(k)-tidSuffixLen]
		if prev == nil || string(prev) != string(stripped) {
			if err := check(); err != nil {
				return err
			}
			live, pending = 0, 0
			prev = append(prev[:0], stripped...)
		}
		rec, ok, gerr := h.heap.Get(tidFromBytes(it.Value()))
		if gerr != nil {
			return gerr
		}
		if !ok || len(rec) < storage.VersionHeaderSize {
			continue // dangling entry: version already reclaimed
		}
		vh := storage.ReadVersionHeader(rec)
		switch db.txns.stateOf(vh.Xmin) {
		case txnAborted:
			continue
		case txnInflight:
			pending++
			continue
		}
		if vh.Xmax == 0 {
			live++
			continue
		}
		switch db.txns.stateOf(vh.Xmax) {
		case txnInflight:
			pending++
		case txnAborted:
			live++
		default:
			// Committed delete: dead version.
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	return check()
}
