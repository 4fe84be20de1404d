package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/sqltypes"
	"repro/internal/stage"
	"repro/internal/storage"
)

// MaxTextBytes bounds text column values so that every row fits a
// B-Tree entry after encoding.
const MaxTextBytes = 512

// coerceRow validates and coerces a row against the table schema:
// ints widen to floats, anything else must match or be NULL, and no
// column stores a NaN.
func coerceRow(schema sqltypes.Schema, row sqltypes.Row) (sqltypes.Row, error) {
	if len(row) != schema.Len() {
		return nil, fmt.Errorf("engine: row has %d values, table has %d columns", len(row), schema.Len())
	}
	out := make(sqltypes.Row, len(row))
	for i, v := range row {
		col := schema.Columns[i]
		switch {
		case v.IsNull():
			out[i] = v
		case v.T == sqltypes.Float && math.IsNaN(v.F):
			return nil, fmt.Errorf("engine: NaN value for column %s", col.Name)
		case v.T == col.Type:
			if v.T == sqltypes.Text && len(v.S) > MaxTextBytes {
				return nil, fmt.Errorf("engine: value for %s exceeds %d bytes", col.Name, MaxTextBytes)
			}
			out[i] = v
		case col.Type == sqltypes.Float && v.T == sqltypes.Int:
			out[i] = sqltypes.NewFloat(float64(v.I))
		case col.Type == sqltypes.Int && v.T == sqltypes.Float && v.F == float64(int64(v.F)):
			out[i] = sqltypes.NewInt(int64(v.F))
		default:
			return nil, fmt.Errorf("engine: type mismatch for column %s: %s value into %s column",
				col.Name, v.T, col.Type)
		}
	}
	return out, nil
}

// keyFor builds the order-preserving key of the given columns.
func keyFor(schema sqltypes.Schema, row sqltypes.Row, cols []string) ([]byte, error) {
	var key []byte
	for _, c := range cols {
		idx := schema.ColIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("engine: key column %q not in schema", c)
		}
		key = sqltypes.EncodeKey(key, row[idx])
	}
	return key, nil
}

// tidSuffix appends the TID to an index key so duplicate key values
// stay unique. The TID is encoded with EncodeKey so that its first
// byte can never be 0xFF (range upper bounds rely on that).
func tidSuffix(key []byte, tid storage.TID) []byte {
	return sqltypes.EncodeKey(key, sqltypes.NewInt(int64(tid)))
}

// tidSuffixLen is the encoded size of the TID suffix tidSuffix appends:
// EncodeKey of an Int is always tag+float64+tag+int64 = 18 bytes.
const tidSuffixLen = 18

func tidBytes(tid storage.TID) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(tid))
	return b[:]
}

func tidFromBytes(b []byte) storage.TID {
	return storage.TID(binary.BigEndian.Uint64(b))
}

// storageKey returns the columns the BTREE primary structure clusters
// on: the explicit storage key if set, else the primary key.
func storageKey(meta *catalog.Table) []string {
	if len(meta.StorageKey) > 0 {
		return meta.StorageKey
	}
	return meta.PrimaryKey
}

// attachWalTxn points every file of the table at the WAL transaction
// that is about to mutate it, so Page.WillModify captures before-images
// for t. Returns the detach func; callers defer it for the statement's
// duration. The caller holds the table's statement write gate (or runs
// alone on the table, as DDL), which is what guarantees a single non-nil
// attachment at a time. A nil t attaches nothing.
func (db *DB) attachWalTxn(h *tableHandle, t *storage.WalTxn) func() {
	if t == nil {
		return func() {}
	}
	files := make([]*storage.File, 0, 2+len(h.indexes))
	files = append(files, h.heap.File())
	if h.primary != nil {
		files = append(files, h.primary.File())
	}
	for _, ix := range h.indexes {
		files = append(files, ix.File())
	}
	for _, f := range files {
		f.SetWALTxn(t)
	}
	return func() {
		for _, f := range files {
			f.SetWALTxn(nil)
		}
	}
}

// checkUnique enforces unique secondary indexes against current
// reality, not a snapshot: the caller holds the table's statement write
// gate, so every candidate version's header is stable while it is
// classified. self is the inserting transaction id.
func (db *DB) checkUnique(h *tableHandle, row sqltypes.Row, self uint64) error {
	for _, ix := range db.cat.TableIndexes(h.meta.Name, false) {
		if !ix.Unique {
			continue
		}
		bt := h.indexes[strings.ToLower(ix.Name)]
		if bt == nil {
			continue
		}
		key, err := keyFor(h.meta.Schema, row, ix.Columns)
		if err != nil {
			return err
		}
		// Every entry of this key value is key || TID suffix, and the
		// suffix never starts with 0xFF: [key, key||0xFF) is exactly the
		// set of versions carrying the key.
		it := bt.Seek(key, append(key[:len(key):len(key)], 0xFF))
		for it.Next() {
			tid := tidFromBytes(it.Value())
			rec, ok, gerr := h.heap.Get(tid)
			if gerr != nil {
				return gerr
			}
			if !ok || len(rec) < storage.VersionHeaderSize {
				continue // vacuumed: dangling entry awaiting cleanup
			}
			hdr := storage.ReadVersionHeader(rec)
			if hdr.Xmin == self {
				if hdr.Xmax == self {
					continue // this transaction already superseded its own version
				}
				return fmt.Errorf("engine: duplicate key for unique index %s", ix.Name)
			}
			switch db.txns.stateOf(hdr.Xmin) {
			case txnAborted:
				continue // dead version awaiting vacuum
			case txnInflight:
				return db.conflictErr("unique key of index %s contested by in-flight transaction %d", ix.Name, hdr.Xmin)
			}
			// Creator committed; the deleter decides.
			switch {
			case hdr.Xmax == 0:
				return fmt.Errorf("engine: duplicate key for unique index %s", ix.Name)
			case hdr.Xmax == self:
				continue // deleted by this transaction
			default:
				switch db.txns.stateOf(hdr.Xmax) {
				case txnAborted:
					return fmt.Errorf("engine: duplicate key for unique index %s", ix.Name)
				case txnInflight:
					return db.conflictErr("unique key of index %s pending delete by transaction %d", ix.Name, hdr.Xmax)
				}
				// Committed delete: the key is free.
			}
		}
		if err := it.Err(); err != nil {
			return err
		}
	}
	return nil
}

// insertVersion inserts a new record version (the MVCC header vh plus
// the encoded row), maintaining the primary structure and all secondary
// indexes — every heap version gets index entries; visibility filtering
// happens at scan time and vacuum removes entries with the versions.
// The caller holds the table's statement write gate (or runs alone on
// the table, as DDL). clk, a sampled statement's, is charged BTree for
// the index work and Heap for the rest.
func (db *DB) insertVersion(h *tableHandle, row sqltypes.Row, vh storage.VersionHeader, self uint64, clk *stage.Clock) (storage.TID, error) {
	from := clk.Switch(stage.BTree)
	defer clk.Switch(from)
	if err := db.checkUnique(h, row, self); err != nil {
		return 0, err
	}
	clk.Switch(stage.Heap)
	var pkey []byte
	if h.primary != nil {
		var err error
		pkey, err = keyFor(h.meta.Schema, row, storageKey(h.meta))
		if err != nil {
			return 0, err
		}
	}
	rec := make([]byte, storage.VersionHeaderSize)
	storage.PutVersionHeader(rec, vh)
	rec = sqltypes.EncodeRow(rec, row)
	tid, err := h.heap.Insert(rec)
	if err != nil {
		return 0, err
	}
	clk.Switch(stage.BTree)
	if h.primary != nil {
		if err := h.primary.Put(tidSuffix(pkey, tid), tidBytes(tid)); err != nil {
			return 0, err
		}
	}
	for name, bt := range h.indexes {
		ix := db.cat.Index(name)
		if ix == nil {
			continue
		}
		key, err := keyFor(h.meta.Schema, row, ix.Columns)
		if err != nil {
			return 0, err
		}
		if err := bt.Put(tidSuffix(key, tid), tidBytes(tid)); err != nil {
			return 0, err
		}
	}
	logToSideLog(h, false, tid, row)
	return tid, nil
}

// dropVersionIndexEntries removes the index entries pointing at one
// reclaimed version (vacuum's half of index maintenance).
func (db *DB) dropVersionIndexEntries(h *tableHandle, tid storage.TID, row sqltypes.Row) error {
	if h.primary != nil {
		pkey, err := keyFor(h.meta.Schema, row, storageKey(h.meta))
		if err != nil {
			return err
		}
		if _, err := h.primary.Delete(tidSuffix(pkey, tid)); err != nil {
			return err
		}
	}
	for name, bt := range h.indexes {
		ix := db.cat.Index(name)
		if ix == nil {
			continue
		}
		key, err := keyFor(h.meta.Schema, row, ix.Columns)
		if err != nil {
			return err
		}
		if _, err := bt.Delete(tidSuffix(key, tid)); err != nil {
			return err
		}
	}
	logToSideLog(h, true, tid, row)
	return nil
}

// BulkInsert loads rows into a table efficiently, bypassing SQL but
// maintaining structures and uniqueness like the normal path. Rows are
// stamped with the frozen transaction id — committed forever — so the
// load runs alone on its table, like DDL: it enters the DDL word and
// waits for the table to drain, and no statement sees it half done. It is
// logged, so it needs no exclusive WAL gate. Used by the workload
// generator.
func (db *DB) BulkInsert(table string, rows []sqltypes.Row) error {
	e := db.runDDL(db.beginDDL([]string{strings.ToLower(table)}, ddlPending))
	defer db.setDDL(e, ddlDone)
	h := db.handle(table)
	if h == nil {
		return fmt.Errorf("engine: unknown table %q", table)
	}
	wtx := db.wal.Begin()
	detach := db.attachWalTxn(h, wtx)
	var err error
	var inserted int64
	for _, row := range rows {
		var coerced sqltypes.Row
		if coerced, err = coerceRow(h.meta.Schema, row); err != nil {
			break
		}
		if _, err = db.insertVersion(h, coerced, storage.VersionHeader{Xmin: frozenTxnID}, frozenTxnID, nil); err != nil {
			break
		}
		inserted++
	}
	detach()
	// Finish (and on success wait out) the WAL transaction before the
	// table is let go.
	if ferr := wtx.Commit(err == nil); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	h.heap.AdjustRows(inserted)
	db.syncMeta(h)
	return nil
}

// heapScanIter adapts the heap's page-at-a-time batch scan to the
// executor's RowBatchIter, filtering versions through the statement's
// snapshot and then through the scan's sieve. Each record batch is
// decoded into a reused value arena, recycled on the next call —
// exactly the executor's batch ownership contract. The sieve tests
// rows whose text values still view the page frames, and only the rows
// that pass copy their text out (late materialization), so the pins and
// the heap latch under the record batch are dropped as soon as it is
// decoded: between calls a scan holds neither, whatever the operators
// above it do with the rows (probe this same heap through an index,
// stop at a LIMIT, fail).
type heapScanIter struct {
	it     *storage.HeapBatchIter
	snap   *snapshot
	cols   []int // schema ordinals decoded; nil: every column
	sieve  *executor.Sieve
	clk    *stage.Clock // charged Heap for the scan; nil unless sampled
	rb     storage.RecBatch
	sel    []int // reused visibility selection backing array
	arena  []sqltypes.Value
	bounds []int // bounds[i]..bounds[i+1] delimit row i in arena
}

func (r *heapScanIter) NextBatch(b *executor.Batch) (bool, error) {
	defer r.clk.Switch(r.clk.Switch(stage.Heap))
	defer r.it.Close()
	for {
		b.Reset()
		ok, err := r.it.NextBatchMax(&r.rb, executor.BatchSize)
		if err != nil || !ok {
			return false, err
		}
		// Visibility selection over the zero-copy record batch: Sel lists
		// the visible record indexes; only those are decoded. A batch
		// whose every version is invisible is skipped wholesale.
		r.sel = r.sel[:0]
		for i, rec := range r.rb.Recs {
			if len(rec) < storage.VersionHeaderSize {
				return false, fmt.Errorf("engine: unversioned heap record")
			}
			if r.snap.visible(storage.ReadVersionHeader(rec)) {
				r.sel = append(r.sel, i)
			}
		}
		r.rb.Sel = r.sel
		if len(r.sel) == 0 {
			continue
		}
		r.arena = r.arena[:0]
		if n := len(r.sel) * len(r.cols); cap(r.arena) < n {
			r.arena = make([]sqltypes.Value, 0, n) // the batch's size, not the doubling's
		}
		r.bounds = append(r.bounds[:0], 0)
		for _, i := range r.sel {
			if r.arena, err = sqltypes.AppendDecodedRow(r.arena, storage.VersionPayload(r.rb.Recs[i]), r.cols, true); err != nil {
				return false, err
			}
			r.bounds = append(r.bounds, len(r.arena))
		}
		// Carve the row slices only after every decode: AppendDecodedRow may
		// move the arena while growing it.
		for i := 0; i+1 < len(r.bounds); i++ {
			lo, hi := r.bounds[i], r.bounds[i+1]
			b.Rows = append(b.Rows, sqltypes.Row(r.arena[lo:hi:hi]))
		}
		if b.Rows, err = r.sieve.Sift(b.Rows); err != nil {
			return false, err
		}
		for _, row := range b.Rows {
			row.Own()
		}
		if len(b.Rows) > 0 {
			return true, nil
		}
	}
}

// Close implements executor.RowBatchIter; NextBatch leaves nothing held.
func (r *heapScanIter) Close() error { return r.it.Close() }

// versionFetcher follows the entries of a B-Tree key range whose values
// are TIDs to the versions they point at, keeping those visible to the
// snapshot. A dangling entry (vacuum reclaimed the version under a
// buffered iterator) is skipped, as is a reused slot holding a version
// the snapshot cannot see — any such reuse happened after the snapshot,
// so visibility filters it out. Index reads (btreeFetchIter) and the
// target search of UPDATE and DELETE (matchRows) both fetch through it.
type versionFetcher struct {
	heap    *storage.Heap
	snap    *snapshot
	cols    []int        // schema ordinals decoded; nil: every column
	clk     *stage.Clock // charged BTree for the entries, Heap for the versions
	fetched int64        // entries followed
	// rec is the reused record buffer (rows are decoded out of it, text
	// included, so nothing aliases it); recArr backs it for records of
	// ordinary size so a point fetch allocates no buffer at all.
	rec    []byte
	recArr [256]byte
}

// next returns the TID and the freshly decoded row of the range's next
// visible version, or ok=false once the range is exhausted. It leaves
// the clock in BTree or Heap; callers switch back once per batch.
func (f *versionFetcher) next(it *storage.Iterator) (storage.TID, sqltypes.Row, bool, error) {
	if f.rec == nil {
		f.rec = f.recArr[:0]
	}
	for f.clk.Switch(stage.BTree); it.Next(); f.clk.Switch(stage.BTree) {
		f.clk.Switch(stage.Heap)
		tid := tidFromBytes(it.Value())
		f.fetched++
		rec, ok, err := f.heap.GetBuf(tid, f.rec[:0], f.clk)
		if ok {
			f.rec = rec
		}
		if err != nil {
			return 0, nil, false, err
		}
		if !ok || len(rec) < storage.VersionHeaderSize {
			continue // reclaimed under the scan
		}
		if !f.snap.visible(storage.ReadVersionHeader(rec)) {
			continue
		}
		row, err := sqltypes.DecodeRow(storage.VersionPayload(rec), f.cols)
		if err != nil {
			return 0, nil, false, err
		}
		return tid, row, true, nil
	}
	return 0, nil, false, it.Err()
}

// btreeFetchIter delivers the visible rows of a B-Tree key range that
// pass its sieve.
type btreeFetchIter struct {
	it    *storage.Iterator // bounded to the range: it never yields a key past it
	f     versionFetcher
	sieve *executor.Sieve
}

// NextBatch delivers the range's visible rows, freshly decoded and
// whole, as the sieve leaves them: a batch is as long as the range, up
// to BatchSize, so a point probe costs one row and no scratch.
func (r *btreeFetchIter) NextBatch(b *executor.Batch) (bool, error) {
	b.Reset()
	defer r.f.clk.Switch(r.f.clk.Switch(stage.BTree))
	for more := true; more && len(b.Rows) == 0; {
		for len(b.Rows) < executor.BatchSize {
			_, row, ok, err := r.f.next(r.it)
			if err != nil {
				return false, err
			}
			if more = ok; !ok {
				break
			}
			b.Rows = append(b.Rows, row)
		}
		var err error
		if b.Rows, err = r.sieve.Sift(b.Rows); err != nil {
			return false, err
		}
	}
	return len(b.Rows) > 0, nil
}

func (r *btreeFetchIter) Close() error { return nil }

// ScanTable implements executor.Storage: base tables scan
// page-at-a-time through the heap batch iterator; virtual table
// snapshots are already materialized.
func (s executorStorage) ScanTable(name string, cols []int, sv *executor.Sieve) (executor.RowBatchIter, error) {
	if vt := s.db.virtualTable(name); vt != nil {
		return &executor.SliceRowIter{Rows: projectRows(vt.provider(), cols), Sieve: sv}, nil
	}
	h := s.db.handle(name)
	if h == nil {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return &heapScanIter{it: h.heap.ScanBatch(s.clk), snap: s.snap, cols: cols, sieve: sv, clk: s.clk}, nil
}

// projectRows narrows rows to the columns cols (nil: every column).
func projectRows(rows []sqltypes.Row, cols []int) []sqltypes.Row {
	if cols == nil {
		return rows
	}
	w := len(cols)
	vals := make([]sqltypes.Value, len(rows)*w)
	out := make([]sqltypes.Row, len(rows))
	for i, row := range rows {
		out[i] = vals[i*w : i*w+w : i*w+w]
		for k, c := range cols {
			out[i][k] = row[c]
		}
	}
	return out
}

// morselSource implements executor.MorselSource over one heap table:
// page-count enumeration plus independent page-range batch scans, all
// filtered through the same captured statement snapshot. Each worker's
// heapScanIter has its own record batch and decode arena, and no stage
// clock: the workers' time is the coordinator's Exec.
type morselSource struct {
	h    *tableHandle
	snap *snapshot
}

func (m *morselSource) Pages() uint32 { return m.h.heap.Pages() }

func (m *morselSource) ScanRange(lo, hi uint32, cols []int, sv *executor.Sieve) (executor.RowBatchIter, error) {
	return &heapScanIter{it: m.h.heap.ScanBatchRange(lo, hi), snap: m.snap, cols: cols, sieve: sv}, nil
}

// MorselTable implements executor.MorselStorage. Virtual tables are
// already-materialized snapshots — nothing to partition, so they
// report ok=false and stay on the serial path.
func (s executorStorage) MorselTable(name string) (executor.MorselSource, bool, error) {
	if vt := s.db.virtualTable(name); vt != nil {
		return nil, false, nil
	}
	h := s.db.handle(name)
	if h == nil {
		return nil, false, fmt.Errorf("engine: unknown table %q", name)
	}
	return &morselSource{h: h, snap: s.snap}, true, nil
}

// IndexRange implements executor.Storage.
func (s executorStorage) IndexRange(table, index string, lo, hi []byte, cols []int, sv *executor.Sieve) (executor.RowBatchIter, error) {
	h := s.db.handle(table)
	if h == nil {
		return nil, fmt.Errorf("engine: unknown table %q", table)
	}
	ix := s.db.cat.Index(index)
	if ix == nil {
		return nil, fmt.Errorf("engine: unknown index %q", index)
	}
	if ix.Virtual {
		return nil, fmt.Errorf("engine: virtual index %s cannot be executed (what-if only)", index)
	}
	bt := h.indexes[strings.ToLower(index)]
	if bt == nil {
		return nil, fmt.Errorf("engine: index %s has no storage", index)
	}
	return &btreeFetchIter{it: bt.SeekClock(lo, hi, s.clk), f: versionFetcher{heap: h.heap, snap: s.snap, cols: cols, clk: s.clk}, sieve: sv}, nil
}

// PrimaryRange implements executor.Storage.
func (s executorStorage) PrimaryRange(table string, lo, hi []byte, cols []int, sv *executor.Sieve) (executor.RowBatchIter, error) {
	h := s.db.handle(table)
	if h == nil {
		return nil, fmt.Errorf("engine: unknown table %q", table)
	}
	if h.primary == nil {
		return nil, fmt.Errorf("engine: table %s has no primary B-Tree", table)
	}
	return &btreeFetchIter{it: h.primary.SeekClock(lo, hi, s.clk), f: versionFetcher{heap: h.heap, snap: s.snap, cols: cols, clk: s.clk}, sieve: sv}, nil
}

// scanRecords calls fn with the TID and record of every version in the
// table's heap, visible or not, in ascending TID order, and returns how
// many it read; fn returning false ends the scan. The record aliases a
// pinned page and is valid only during the call. fn runs under the
// heap's read latch and must not write the heap. The scan, fn included,
// is charged to clk's Heap.
func scanRecords(h *tableHandle, clk *stage.Clock, fn func(storage.TID, []byte) (bool, error)) (int64, error) {
	defer clk.Switch(clk.Switch(stage.Heap))
	it := h.heap.ScanBatch(clk)
	defer it.Close()
	var (
		rb   storage.RecBatch
		read int64
	)
	for {
		ok, err := it.NextBatchMax(&rb, executor.BatchSize)
		if err != nil || !ok {
			return read, err
		}
		for i, rec := range rb.Recs {
			read++
			if len(rec) < storage.VersionHeaderSize {
				return read, fmt.Errorf("engine: unversioned record %v in %s", rb.TIDs[i], h.meta.Name)
			}
			if more, err := fn(rb.TIDs[i], rec); err != nil || !more {
				return read, err
			}
		}
	}
}

// scanVisible is scanRecords over the versions visible to sn, each
// decoded into a row valid only during the call: a caller that keeps it
// clones it.
func scanVisible(h *tableHandle, sn *snapshot, clk *stage.Clock, fn func(storage.TID, sqltypes.Row) (bool, error)) (int64, error) {
	var row []sqltypes.Value
	return scanRecords(h, clk, func(tid storage.TID, rec []byte) (bool, error) {
		if !sn.visible(storage.ReadVersionHeader(rec)) {
			return true, nil
		}
		var err error
		if row, err = sqltypes.AppendDecodedRow(row[:0], storage.VersionPayload(rec), nil, false); err != nil {
			return false, err
		}
		return fn(tid, row)
	})
}

// rebuildTable rewrites the heap compactly (ordered by key for BTREE)
// and rebuilds the primary structure and every secondary index. Used
// by MODIFY. It reads the rows against current reality: the caller runs
// alone on the drained table, so no writer is in flight on it and
// reality is final for it.
func (db *DB) rebuildTable(h *tableHandle, structure catalog.Structure, keyCols []string) error {
	var rows []sqltypes.Row
	_, err := scanVisible(h, db.txns.realitySnapshot(), nil, func(_ storage.TID, row sqltypes.Row) (bool, error) {
		rows = append(rows, row.Clone())
		return true, nil
	})
	if err != nil {
		return err
	}
	if structure == catalog.BTree {
		if len(keyCols) == 0 {
			return fmt.Errorf("engine: MODIFY TO BTREE needs key columns or a primary key on %s", h.meta.Name)
		}
		// Cluster rows by key order.
		keys := make([][]byte, len(rows))
		for i, r := range rows {
			if keys[i], err = keyFor(h.meta.Schema, r, keyCols); err != nil {
				return err
			}
		}
		sort.SliceStable(rows, func(i, j int) bool { return string(keys[i]) < string(keys[j]) })
	}

	if err := h.heap.Truncate(); err != nil {
		return err
	}
	// Reset or drop the primary structure file.
	if h.primary != nil {
		if err := h.primary.File().Remove(); err != nil {
			return err
		}
		h.primary = nil
	}
	if structure == catalog.BTree {
		pf, err := db.newFile(db.primaryPath(h.meta.Name))
		if err != nil {
			return err
		}
		if h.primary, err = storage.CreateBTree(pf); err != nil {
			return err
		}
	} else {
		// Make sure a stale primary file is gone.
		_ = removeIfExists(db.primaryPath(h.meta.Name))
	}
	// Reset secondary index files.
	for name, bt := range h.indexes {
		if err := bt.File().Remove(); err != nil {
			return err
		}
		xf, err := db.newFile(db.indexPath(name))
		if err != nil {
			return err
		}
		if h.indexes[name], err = storage.CreateBTree(xf); err != nil {
			return err
		}
	}

	// Under the catalog lock: another table's DDL or a checkpoint may be
	// saving the catalog, this entry included. The Save below persists it.
	if err := db.cat.UpdateTable(h.meta.Name, func(t *catalog.Table) {
		t.Structure, t.StorageKey = structure, nil
		if structure == catalog.BTree {
			t.StorageKey = keyCols
		}
	}); err != nil {
		return err
	}
	// Rebuilt rows are frozen: the rebuild keeps only committed-visible
	// versions, so their history is irrelevant and the compacted heap
	// starts with clean single-version chains.
	for _, row := range rows {
		if _, err := db.insertVersion(h, row, storage.VersionHeader{Xmin: frozenTxnID}, frozenTxnID, nil); err != nil {
			return err
		}
	}
	h.heap.ResetRows(int64(len(rows)))
	// After a rebuild every page is a main page: no overflow.
	h.heap.SetMainPages(h.heap.Pages())
	db.syncMeta(h)
	return db.cat.Save()
}

func removeIfExists(path string) error {
	err := os.Remove(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
