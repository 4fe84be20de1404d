// Package engine ties the substrates together into an embedded
// relational DBMS: catalog, paged storage, lock manager, optimizer,
// executor, prepared-statement cache — and the integrated monitor, whose sensors sit
// directly in the statement path exactly as the paper prescribes
// (part of each module, not a watchdog on top).
package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/lock"
	"repro/internal/monitor"
	"repro/internal/sqltypes"
	"repro/internal/stage"
	"repro/internal/storage"
)

// Config configures a database instance.
type Config struct {
	// Dir is the database directory (created if absent).
	Dir string
	// PoolPages sizes the shared buffer pool (default 2048 pages =
	// 8 MiB).
	PoolPages int
	// Monitor is the integrated monitor; nil runs the engine without
	// any monitoring code active — the paper's "Original" setup.
	Monitor *monitor.Monitor
	// WALOpen substitutes the WAL file implementation — the walfault
	// crash-simulation seam. nil uses the real file.
	WALOpen func(string) (storage.WALFile, error)
}

// DB is an embedded database instance.
type DB struct {
	dir   string
	cat   *catalog.Catalog
	pool  *storage.Pool
	locks *lock.Manager
	mon   *monitor.Monitor
	wal   *storage.WAL
	txns  *txnManager   // MVCC transaction ids, snapshots, outcomes
	redo  recoveryStats // what crash recovery did at Open

	// Vacuum telemetry (the MVCC garbage-collection counters behind
	// engine_mvcc_* and ws_mvcc).
	vacRuns      atomic.Int64
	vacReclaimed atomic.Int64 // dead version slots reclaimed
	vacCleared   atomic.Int64 // aborted xmax stamps cleared
	vacChainP95  atomic.Int64 // last pass's p95 version-chain length

	// Morsel-parallelism telemetry (behind engine_parallel_* and the
	// parallel_* statistics columns).
	parallelQueries     atomic.Int64 // statements that fanned out at least once
	morselsDispatched   atomic.Int64 // morsels handed to workers
	parallelWorkerNanos atomic.Int64 // summed worker wall time

	mu      sync.RWMutex // guards tables and virtual maps
	tables  map[string]*tableHandle
	virtual map[string]*virtualTable

	plans *stmtCache // prepared statements by shape (prepared.go)

	// Statement admission (admit.go): every session's slot, and the DDL
	// word — the DDL under way, nil almost always — with the mutex its
	// writers take and the count of sessions and DDL waiting on it.
	slots      sync.Map // *slot -> nil
	ddlMu      sync.Mutex
	ddl        atomic.Pointer[[]*ddlEntry]
	ddlWaiting atomic.Int64

	nextSession     atomic.Int64
	currentSessions atomic.Int64
	peakSessions    atomic.Int64
	statements      atomic.Int64
}

type tableHandle struct {
	meta    *catalog.Table
	heap    *storage.Heap
	primary *storage.BTree            // non-nil iff Structure == BTREE
	indexes map[string]*storage.BTree // real secondary indexes by lower name
	// sideLog, when non-nil, is the capture log of an index
	// build in progress on this table: insertRow/deleteRow append the
	// index mutations the half-built index cannot receive yet.
	sideLog atomic.Pointer[indexSideLog]
}

type virtualTable struct {
	meta     *catalog.Table
	provider func() []sqltypes.Row
}

// Open opens (or creates) the database in cfg.Dir.
func Open(cfg Config) (*DB, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("engine: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if cfg.PoolPages <= 0 {
		cfg.PoolPages = 2048
	}
	cat, err := catalog.Load(cfg.Dir)
	if err != nil {
		return nil, err
	}
	// Crash recovery replays the WAL against the raw page files before
	// any page enters the buffer pool.
	redo, err := recoverWAL(cfg.Dir)
	if err != nil {
		return nil, err
	}
	// Seed the MVCC transaction manager: ids that finished a statement
	// (or were in flight at the last checkpoint) without an MVCC commit
	// record are aborted — their versions stay on disk, invisible.
	txns := newTxnManager()
	ts := cat.TxnStatus()
	crashAborted := map[uint64]bool{}
	for id := range redo.OwnersSeen {
		crashAborted[id] = true
	}
	for _, id := range ts.Inflight {
		crashAborted[id] = true
	}
	for id := range redo.OwnersCommitted {
		delete(crashAborted, id)
	}
	txns.restore(ts, crashAborted, redo.MaxOwner)
	if len(ts.Inflight) > 0 || len(crashAborted) > 0 {
		// Persist the resolved outcomes before the log (and with it the
		// commit records that proved them) is reset: a crash in between
		// must not re-derive a different answer.
		cat.SetTxnStatus(txns.status())
		if err := cat.Save(); err != nil {
			return nil, err
		}
	}
	if redo.ResetLSN > 0 {
		if err := storage.ResetWAL(filepath.Join(cfg.Dir, storage.WALFileName), redo.ResetLSN); err != nil {
			return nil, err
		}
	}
	wal, err := storage.OpenWAL(filepath.Join(cfg.Dir, storage.WALFileName), storage.WALOptions{
		OpenFile: cfg.WALOpen,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{
		dir:     cfg.Dir,
		cat:     cat,
		pool:    storage.NewPool(cfg.PoolPages),
		locks:   lock.NewManager(),
		mon:     cfg.Monitor,
		wal:     wal,
		txns:    txns,
		redo:    redo,
		tables:  map[string]*tableHandle{},
		virtual: map[string]*virtualTable{},
		plans:   newStmtCache(stmtCacheSize),
	}
	// A Building index entry is a crashed index build: drop it (and
	// its file), then sweep data files the catalog no longer references
	// — the DROP TABLE crash window leaves exactly those behind.
	if err := db.cleanOrphans(); err != nil {
		db.Close()
		return nil, err
	}
	for _, t := range cat.Tables() {
		if err := db.openTable(t); err != nil {
			db.Close()
			return nil, err
		}
	}
	if redo.Redo > 0 || redo.Undo > 0 || len(crashAborted) > 0 {
		// Recovery moved data under the catalog's row counts, or the
		// crash aborted transactions whose versions must stop counting.
		if err := db.recountAfterRecovery(); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}

// cleanOrphans runs once at Open, after WAL recovery and before any
// table file is opened. It drops catalog index entries still marked
// Building (a crashed index build) together with their files, then
// removes every t_/p_/i_ data file in the directory that the catalog
// does not reference — the residue of a crash between DROP TABLE's
// catalog save and its file removal.
func (db *DB) cleanOrphans() error {
	for _, ix := range db.cat.Indexes() {
		if !ix.Building {
			continue
		}
		if err := db.cat.DropIndex(ix.Name); err != nil {
			return err
		}
		if err := removeIfExists(db.indexPath(ix.Name)); err != nil {
			return err
		}
	}
	referenced := map[string]bool{}
	for _, t := range db.cat.Tables() {
		referenced[db.tablePath(t.Name)] = true
		referenced[db.primaryPath(t.Name)] = true
	}
	for _, ix := range db.cat.Indexes() {
		if !ix.Virtual {
			referenced[db.indexPath(ix.Name)] = true
		}
	}
	entries, err := os.ReadDir(db.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".dat") {
			continue
		}
		if !strings.HasPrefix(name, "t_") && !strings.HasPrefix(name, "p_") && !strings.HasPrefix(name, "i_") {
			continue
		}
		path := filepath.Join(db.dir, name)
		if !referenced[path] {
			if err := os.Remove(path); err != nil {
				return err
			}
		}
	}
	return nil
}

// newFile opens a page file attached to both the pool and the WAL.
func (db *DB) newFile(path string) (*storage.File, error) {
	f, err := storage.OpenFile(path, db.pool)
	if err != nil {
		return nil, err
	}
	f.AttachWAL(db.wal)
	return f, nil
}

func (db *DB) tablePath(name string) string {
	return filepath.Join(db.dir, "t_"+strings.ToLower(name)+".dat")
}

func (db *DB) primaryPath(name string) string {
	return filepath.Join(db.dir, "p_"+strings.ToLower(name)+".dat")
}

func (db *DB) indexPath(name string) string {
	return filepath.Join(db.dir, "i_"+strings.ToLower(name)+".dat")
}

// openTable opens the storage files behind a catalog table.
func (db *DB) openTable(meta *catalog.Table) error {
	// A catalog entry with rows but no heap file is corruption (a
	// historical DROP TABLE crash window could produce it). Opening
	// would silently recreate an empty file and report the table as
	// empty; fail with a diagnosis instead.
	if meta.Rows > 0 {
		if _, serr := os.Stat(db.tablePath(meta.Name)); os.IsNotExist(serr) {
			return fmt.Errorf("engine: catalog lists table %s with %d rows but its data file %s is missing (incomplete DROP TABLE or external deletion); restore the file or remove the catalog entry",
				meta.Name, meta.Rows, db.tablePath(meta.Name))
		}
	}
	f, err := db.newFile(db.tablePath(meta.Name))
	if err != nil {
		return err
	}
	h := &tableHandle{
		meta:    meta,
		heap:    storage.OpenHeap(f, meta.MainPages, meta.Rows),
		indexes: map[string]*storage.BTree{},
	}
	if meta.Structure == catalog.BTree {
		pf, err := db.newFile(db.primaryPath(meta.Name))
		if err != nil {
			f.Close()
			return err
		}
		if pf.Pages() == 0 {
			h.primary, err = storage.CreateBTree(pf)
		} else {
			h.primary, err = storage.OpenBTree(pf)
		}
		if err != nil {
			f.Close()
			pf.Close()
			return err
		}
	}
	for _, ix := range db.cat.TableIndexes(meta.Name, false) {
		xf, err := db.newFile(db.indexPath(ix.Name))
		if err != nil {
			return err
		}
		var bt *storage.BTree
		if xf.Pages() == 0 {
			bt, err = storage.CreateBTree(xf)
		} else {
			bt, err = storage.OpenBTree(xf)
		}
		if err != nil {
			xf.Close()
			return err
		}
		h.indexes[strings.ToLower(ix.Name)] = bt
	}
	db.mu.Lock()
	db.tables[strings.ToLower(meta.Name)] = h
	db.mu.Unlock()
	return nil
}

func (db *DB) handle(name string) *tableHandle {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[strings.ToLower(name)]
}

func (db *DB) virtualTable(name string) *virtualTable {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.virtual[strings.ToLower(name)]
}

// RegisterVirtual exposes an in-memory row provider as a read-only
// virtual table — the IMA mechanism: each class of in-memory objects
// is registered as a table and becomes queryable over plain SQL.
func (db *DB) RegisterVirtual(name string, schema sqltypes.Schema, provider func() []sqltypes.Row) error {
	if db.handle(name) != nil || db.cat.Table(name) != nil {
		return fmt.Errorf("engine: table %s already exists", name)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, dup := db.virtual[key]; dup {
		return fmt.Errorf("engine: virtual table %s already registered", name)
	}
	db.virtual[key] = &virtualTable{
		meta: &catalog.Table{
			Name:      name,
			Schema:    schema,
			Structure: catalog.Heap,
			MainPages: 1,
			Rows:      64, // nominal planning estimate
		},
		provider: provider,
	}
	// A cached statement's scope was computed when the name was no
	// virtual table.
	db.plans.invalidate()
	return nil
}

// Monitor returns the attached monitor, or nil.
func (db *DB) Monitor() *monitor.Monitor { return db.mon }

// Catalog returns the system catalog.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// LockStats returns the lock counters (Figure 8's data source): the lock
// manager's row locks and write gates, plus the tables of running DDL
// among the held and the sessions and DDL waiting on a DDL among the
// waiting.
func (db *DB) LockStats() lock.Stats {
	ls := db.locks.Stats()
	if w := db.ddl.Load(); w != nil {
		for _, e := range *w {
			if e.state == ddlRunning {
				ls.Held += len(e.tables)
			}
		}
	}
	ls.Waiting += int(db.ddlWaiting.Load())
	return ls
}

// PoolStats returns buffer-pool counters.
func (db *DB) PoolStats() storage.PoolStats { return db.pool.Stats() }

// PoolCapacity returns the buffer pool's current frame budget.
func (db *DB) PoolCapacity() int { return db.pool.Capacity() }

// ResizePool changes the buffer pool's frame budget at runtime —
// growing adds frames immediately, shrinking evicts down to the new
// budget without blocking the workload — and returns the effective new
// capacity. This is the execution half of the analyzer's buffer-pool
// recommendation.
func (db *DB) ResizePool(pages int) int { return db.pool.Resize(pages) }

// Dir returns the database directory.
func (db *DB) Dir() string { return db.dir }

// SizeBytes returns the total size of all table and index files — the
// "size of the data files" measure of the paper's Figure 7 — counting
// the page a heap currently appends to as far as it is filled, so that
// growth is visible row by row (the workload DB of a run that writes a
// few aggregated rows per poll grows by less than a page per table).
func (db *DB) SizeBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var total int64
	for _, h := range db.tables {
		total += h.heap.SizeBytes()
		if h.primary != nil {
			total += h.primary.File().SizeBytes()
		}
		for _, ix := range h.indexes {
			total += ix.File().SizeBytes()
		}
	}
	return total
}

// syncMeta copies runtime counters into the catalog entry (main pages
// and row counts drift during DML). It goes through the catalog's lock
// because commit paths run it concurrently with checkpoint's
// Catalog.Save marshaling the same entry.
func (db *DB) syncMeta(h *tableHandle) {
	db.cat.SyncTableStats(h.meta.Name, h.heap.Rows(), h.heap.MainPages())
}

// Checkpoint runs a fuzzy checkpoint: a begin-checkpoint record fixes
// the redo scan start, every table file is flushed AND fsynced (the
// pre-WAL version only flushed, so a checkpoint guaranteed nothing),
// the catalog is persisted, and the end-checkpoint record — durable
// before Checkpoint returns — publishes the scan start to recovery.
func (db *DB) Checkpoint() error {
	scanStart := db.wal.CheckpointBegin()
	db.mu.RLock()
	handles := make([]*tableHandle, 0, len(db.tables))
	for _, h := range db.tables {
		handles = append(handles, h)
	}
	db.mu.RUnlock()
	for _, h := range handles {
		db.syncMeta(h)
		if err := h.heap.File().Sync(); err != nil {
			return err
		}
		if h.primary != nil {
			if err := h.primary.File().Sync(); err != nil {
				return err
			}
		}
		for _, ix := range h.indexes {
			if err := ix.File().Sync(); err != nil {
				return err
			}
		}
	}
	if db.txns != nil {
		// The checkpoint's catalog image carries the transaction status
		// (next id, aborted set, in-flight ids) so recovery can rebuild
		// outcomes even after the log is compacted away.
		db.cat.SetTxnStatus(db.txns.status())
	}
	if err := db.cat.Save(); err != nil {
		return err
	}
	return db.wal.CheckpointEnd(scanStart)
}

// Close checkpoints and closes every file.
func (db *DB) Close() error {
	var firstErr error
	if err := db.Checkpoint(); err != nil {
		firstErr = err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, h := range db.tables {
		if err := h.heap.File().Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if h.primary != nil {
			if err := h.primary.File().Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		for _, ix := range h.indexes {
			if err := ix.File().Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	db.tables = map[string]*tableHandle{}
	if err := db.wal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// WAL returns the write-ahead log (nil only before Open finished).
func (db *DB) WAL() *storage.WAL { return db.wal }

// WALFsyncLatency returns the WAL fsync latency histogram in the
// monitor's bucket scheme, plus the cumulative nanosecond sum, ready
// for the telemetry exporter.
func (db *DB) WALFsyncLatency() (monitor.LatencyCounts, int64) {
	var lc monitor.LatencyCounts
	if db.wal == nil {
		return lc, 0
	}
	b, sum := db.wal.FsyncLatency()
	copy(lc[:], b[:])
	return lc, sum
}

// SystemStats is the engine-wide statistics sample the IMA statistics
// table and the storage daemon publish (the paper's third monitoring
// category).
type SystemStats struct {
	CurrentSessions int64
	PeakSessions    int64
	Statements      int64
	LocksHeld       int64
	LockWaits       int64
	LockWaitNanos   int64 // cumulative wallclock sessions spent parked on lock queues or behind DDL
	Deadlocks       int64
	CacheHits       int64
	CacheMisses     int64
	DiskReads       int64
	DiskWrites      int64
	DBBytes         int64
	CacheEvictions  int64
	CacheResident   int64
	PinWaits        int64
	WALBytes        int64 // bytes appended to the WAL
	WALFsyncs       int64 // WAL fsyncs issued (group commit amortizes these)
	RedoRecords     int64 // WAL records replayed (redo + undo) at the last Open
	RedoNanos       int64 // wallclock nanoseconds of the last recovery pass
	// Morsel-parallelism counters (appended; consumers address columns
	// positionally).
	ParallelQueries     int64 // statements that ran a parallel subtree
	MorselsDispatched   int64 // morsels handed to scan workers
	ParallelWorkerNanos int64 // summed parallel-worker wall time
	// Prepared-statement cache, cold paths only: a hit is a statement
	// that is not a miss.
	StmtCacheMisses        int64 // statements that ran the parser
	StmtCacheEvictions     int64 // entries dropped for capacity
	StmtCacheInvalidations int64 // times DDL or new statistics dropped the cache
	StmtCacheStaleReparses int64 // hits re-parsed because DDL overtook them
}

// Stats samples the engine-wide statistics.
func (db *DB) Stats() SystemStats {
	ls := db.LockStats()
	ps := db.pool.Stats()
	ws := db.wal.Stats()
	return SystemStats{
		CurrentSessions: db.currentSessions.Load(),
		PeakSessions:    db.peakSessions.Load(),
		Statements:      db.statements.Load(),
		LocksHeld:       int64(ls.Held),
		LockWaits:       ls.Waits,
		LockWaitNanos:   ls.WaitNanos,
		Deadlocks:       ls.Deadlocks,
		CacheHits:       ps.Hits,
		CacheMisses:     ps.Misses,
		DiskReads:       ps.DiskReads,
		DiskWrites:      ps.DiskWrite,
		DBBytes:         db.SizeBytes(),
		CacheEvictions:  ps.Evictions,
		CacheResident:   ps.Resident,
		PinWaits:        ps.PinWaits,
		WALBytes:        ws.Bytes,
		WALFsyncs:       ws.Fsyncs,
		RedoRecords:     db.redo.Redo + db.redo.Undo,
		RedoNanos:       db.redo.Nanos,

		ParallelQueries:     db.parallelQueries.Load(),
		MorselsDispatched:   db.morselsDispatched.Load(),
		ParallelWorkerNanos: db.parallelWorkerNanos.Load(),

		StmtCacheMisses:        db.plans.misses.Load(),
		StmtCacheEvictions:     db.plans.evictions.Load(),
		StmtCacheInvalidations: int64(db.plans.gen.Load()),
		StmtCacheStaleReparses: db.plans.staleReparses.Load(),
	}
}

// executorStorage adapts the DB to the executor's Storage interface.
// clk, a sampled statement's stage clock, rides into the iterators the
// read paths hand out. snap is the executing statement's visibility
// snapshot; every row and batch iterator filters through it.
type executorStorage struct {
	db   *DB
	clk  *stage.Clock
	snap *snapshot
}

var _ executor.Storage = executorStorage{}

// MvccStats is the engine's MVCC and vacuum statistics sample, exported
// through ima_mvcc, ws_mvcc and the engine_mvcc_* metrics.
type MvccStats struct {
	TxnBegins           int64
	TxnCommits          int64
	TxnAborts           int64
	WriteConflicts      int64 // first-updater-wins aborts
	InflightTxns        int64
	ActiveSnapshots     int64
	AbortedIDs          int64 // aborted ids awaiting vacuum retirement
	OldestSnapshotNanos int64 // age of the oldest active snapshot
	VacuumRuns          int64
	VacuumReclaimed     int64 // dead version slots reclaimed
	VacuumCleared       int64 // aborted xmax stamps cleared
	RetiredIDs          int64 // aborted ids vacuum proved unreferenced
	ChainLenP95         int64 // p95 version-chain length at the last vacuum
}

// MvccStats samples the MVCC counters.
func (db *DB) MvccStats() MvccStats {
	snaps, oldest := db.snapshotGauges(time.Now())
	return MvccStats{
		TxnBegins:           db.txns.begins.Load(),
		TxnCommits:          db.txns.commits.Load(),
		TxnAborts:           db.txns.aborts.Load(),
		WriteConflicts:      db.txns.conflicts.Load(),
		InflightTxns:        int64(len(db.txns.state.Load().inflight)),
		ActiveSnapshots:     int64(snaps),
		AbortedIDs:          int64(len(*db.txns.aborted.Load())),
		OldestSnapshotNanos: int64(oldest),
		VacuumRuns:          db.vacRuns.Load(),
		VacuumReclaimed:     db.vacReclaimed.Load(),
		VacuumCleared:       db.vacCleared.Load(),
		RetiredIDs:          db.txns.retired.Load(),
		ChainLenP95:         db.vacChainP95.Load(),
	}
}

// TableState is the physical state of one table, as the IMA tables
// report it.
type TableState struct {
	Pages         uint32
	OverflowPages uint32
	Rows          int64
}

// TableState returns the physical state of the named table (zeroes for
// unknown or virtual tables).
func (db *DB) TableState(name string) TableState {
	h := db.handle(name)
	if h == nil {
		return TableState{}
	}
	return TableState{
		Pages:         h.heap.Pages(),
		OverflowPages: h.heap.OverflowPages(),
		Rows:          h.heap.Rows(),
	}
}
