package engine

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/storage"
)

// ARIES-style crash recovery over the physical-image WAL. Runs on
// engine.Open before the buffer pool exists, directly against the page
// files: scan the log from the last fuzzy checkpoint's scan-start LSN,
// redo after-images of finished transactions whose LSN exceeds the
// on-disk page LSN, then undo (restore before-images of) transactions
// that were still in flight at the crash and had managed to steal dirty
// pages onto disk. The log's CRC + LSN-sequence validation stops the
// scan cleanly at a torn tail, so a crash mid-append never blocks Open.

// recoveryStats summarizes one recovery pass for the telemetry plane
// and carries the MVCC transaction outcomes recovery derived from the
// log, so Open can seed the transaction manager.
type recoveryStats struct {
	Redo  int64 // after-images reapplied
	Undo  int64 // before-images restored
	Nanos int64 // wallclock nanoseconds spent recovering
	// OwnersSeen holds every MVCC transaction id that finished at least
	// one statement in the log; OwnersCommitted the subset whose
	// WALTxnCommit record (the MVCC commit point) made it. Seen but not
	// committed means the crash aborted the transaction.
	OwnersSeen      map[uint64]bool
	OwnersCommitted map[uint64]bool
	MaxOwner        uint64
	// ResetLSN, when non-zero, is the LSN the caller must reset the log
	// to after persisting the derived transaction status — resetting
	// inside recovery would open a crash window in which the commit
	// records are gone but the catalog still lists the owners in flight.
	ResetLSN uint64
}

// recoverWAL replays the log in dir against the page files. A missing
// log means a pre-WAL or fresh database: no-op. The caller resets the
// log at st.ResetLSN once the derived transaction status is persisted.
func recoverWAL(dir string) (recoveryStats, error) {
	var st recoveryStats
	path := filepath.Join(dir, storage.WALFileName)
	start := time.Now()
	recs, base, _, err := storage.ReadWALRecords(path)
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil
		}
		return st, fmt.Errorf("engine: recovery: %w", err)
	}
	if len(recs) == 0 {
		return st, nil
	}

	// The redo scan starts at the last complete checkpoint's scan-start
	// LSN: everything older was durable in the data files when that
	// checkpoint finished.
	scanStart := base
	for _, r := range recs {
		if r.Type == storage.WALCheckpointEnd && r.ScanStart > scanStart {
			scanStart = r.ScanStart
		}
	}
	// Winners are transactions whose finish record made it to the log.
	// (Rollback writes one too — the engine keeps a rolled-back
	// transaction's effects, so recovery must as well.) Everything else
	// was in flight at the crash and gets undone.
	committed := make(map[uint64]bool)
	st.OwnersSeen = map[uint64]bool{}
	st.OwnersCommitted = map[uint64]bool{}
	for _, r := range recs {
		switch r.Type {
		case storage.WALCommit:
			committed[r.Txn] = true
			if r.Owner != 0 {
				st.OwnersSeen[r.Owner] = true
				if r.Owner > st.MaxOwner {
					st.MaxOwner = r.Owner
				}
			}
		case storage.WALTxnCommit:
			st.OwnersCommitted[r.Owner] = true
			if r.Owner > st.MaxOwner {
				st.MaxOwner = r.Owner
			}
		}
	}

	files := make(map[string]*os.File)
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	open := func(name string) (*os.File, error) {
		if f, ok := files[name]; ok {
			return f, nil
		}
		if name == "" || name != filepath.Base(name) {
			return nil, fmt.Errorf("engine: recovery: invalid file name %q in wal", name)
		}
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		files[name] = f
		return f, nil
	}
	// diskLSN reads a page's on-disk LSN trailer; pages past EOF (never
	// flushed) read as 0.
	diskLSN := func(f *os.File, page uint32) (uint64, error) {
		var tr [storage.PageTrailerSize]byte
		_, err := f.ReadAt(tr[:], int64(page)*storage.PageSize+storage.PageDataSize)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil
		}
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(tr[:]), nil
	}

	// Redo pass: reapply winners' after-images, oldest first, wherever
	// the on-disk page is older than the record.
	for _, r := range recs {
		if r.LSN < scanStart || r.Type != storage.WALAfterImage || !committed[r.Txn] {
			continue
		}
		f, err := open(r.File)
		if err != nil {
			return st, err
		}
		cur, err := diskLSN(f, r.Page)
		if err != nil {
			return st, err
		}
		if cur >= r.LSN {
			continue // page already reflects this (or a later) record
		}
		if _, err := f.WriteAt(r.Image, int64(r.Page)*storage.PageSize); err != nil {
			return st, err
		}
		st.Redo++
	}

	// Undo pass: losers newest first. A loser's before-image is applied
	// only where the on-disk page actually carries the loser's write
	// (trailer >= the before-image's LSN): a stolen dirty page. The
	// restored image gets the pre-transaction LSN back, keeping
	// recovery idempotent across repeated crashes.
	img := make([]byte, storage.PageSize)
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		if r.LSN < scanStart {
			break
		}
		if r.Type != storage.WALBeforeImage || committed[r.Txn] {
			continue
		}
		f, err := open(r.File)
		if err != nil {
			return st, err
		}
		cur, err := diskLSN(f, r.Page)
		if err != nil {
			return st, err
		}
		if cur < r.LSN {
			continue // the loser's write never reached disk
		}
		copy(img, r.Image)
		storage.SetPageLSN(img, r.PrevLSN)
		if _, err := f.WriteAt(img, int64(r.Page)*storage.PageSize); err != nil {
			return st, err
		}
		st.Undo++
	}

	for name, f := range files {
		if err := f.Sync(); err != nil {
			return st, fmt.Errorf("engine: recovery: fsync %s: %w", name, err)
		}
	}
	// The replayed log is spent: Open restarts it just past the last LSN
	// (after persisting transaction outcomes) so new records never
	// collide with recovered page trailers.
	st.ResetLSN = recs[len(recs)-1].LSN + 1
	st.Nanos = time.Since(start).Nanoseconds()
	return st, nil
}

// recountAfterRecovery resynchronizes per-table row counts after a
// recovery pass touched data pages behind the catalog's back. The count
// is MVCC-aware: only versions visible to a fresh snapshot — creator
// committed, no committed deleter — are rows; versions of transactions
// the crash aborted stay on disk but are not counted (vacuum reclaims
// them).
func (db *DB) recountAfterRecovery() error {
	sn := db.txns.realitySnapshot()
	db.mu.RLock()
	handles := make([]*tableHandle, 0, len(db.tables))
	for _, h := range db.tables {
		handles = append(handles, h)
	}
	db.mu.RUnlock()
	for _, h := range handles {
		var rows int64
		_, err := scanRecords(h, nil, func(_ storage.TID, rec []byte) (bool, error) {
			if sn.visible(storage.ReadVersionHeader(rec)) {
				rows++
			}
			return true, nil
		})
		if err != nil {
			return err
		}
		h.heap.ResetRows(rows)
		db.syncMeta(h)
	}
	return db.cat.Save()
}
