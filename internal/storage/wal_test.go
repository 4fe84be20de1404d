package storage

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stagedCaps returns the capacities of the WAL's staging buffers.
func stagedCaps(w *WAL) (buf, spare int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return cap(w.buf), cap(w.spare)
}

// TestWALStagingBufferRetention: a unit that stages several MiB of page
// images grows the staging buffer far past walRetainedBuf, so it flushes
// at finish although it does not wait, and after the flush neither
// buffer keeps that size; a small commit afterwards still recycles the
// retained buffer, so a group commit allocates nothing.
func TestWALStagingBufferRetention(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(filepath.Join(dir, "wal"), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const pages = 640 // a before- and an after-image each: about 5 MiB staged
	f, err := OpenFile(filepath.Join(dir, "data"), NewPool(2*pages))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.AttachWAL(w)
	for i := 0; i < pages; i++ {
		if _, err := f.Allocate(); err != nil {
			t.Fatal(err)
		}
	}

	tx := w.Begin()
	f.SetWALTxn(tx)
	for pg := uint32(0); pg < pages; pg++ {
		p, err := f.GetPage(pg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.WillModify(); err != nil {
			t.Fatal(err)
		}
		p.Data[0]++
		p.MarkDirty()
		p.Release()
	}
	f.SetWALTxn(nil)
	if grown, _ := stagedCaps(w); grown < 4<<20 {
		t.Fatalf("the unit staged only %d bytes", grown)
	}
	if err := tx.Commit(false); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.DurableLSN != uint64(st.Appends) {
		t.Fatalf("a %d-record unit finished without a wait is durable only to lsn %d", st.Appends, st.DurableLSN)
	}
	if buf, spare := stagedCaps(w); buf > walRetainedBuf || spare > walRetainedBuf {
		t.Errorf("after the flush the staging buffers keep %d and %d bytes, cap %d", buf, spare, walRetainedBuf)
	}

	if err := w.CommitTxn(7, true); err != nil { // primes the retained pair
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := w.CommitTxn(7, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a small commit allocates %.1f times: the staging buffer is not recycled", allocs)
	}
	if _, spare := stagedCaps(w); spare == 0 {
		t.Error("no staging buffer is kept for reuse")
	}
}

// countingFile is a WALFile that counts writes and fsyncs, and whose
// Sync sleeps for syncDelay first, standing in for a slow log device.
type countingFile struct {
	*os.File
	syncDelay time.Duration
	writes    atomic.Int64
	syncs     atomic.Int64
}

func (f *countingFile) Write(p []byte) (int, error) {
	f.writes.Add(1)
	return f.File.Write(p)
}

func (f *countingFile) Sync() error {
	time.Sleep(f.syncDelay)
	f.syncs.Add(1)
	return f.File.Sync()
}

// openCountingWAL opens a log at a fresh path through countingFile.
func openCountingWAL(t *testing.T, dir string, syncDelay time.Duration) (*WAL, *countingFile) {
	t.Helper()
	var cf *countingFile
	w, err := OpenWAL(filepath.Join(dir, "wal"), WALOptions{OpenFile: func(path string) (WALFile, error) {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		cf = &countingFile{File: f, syncDelay: syncDelay}
		return cf, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	return w, cf
}

// TestWALCommitsBatchWithoutTimer: with no flusher and no window, the
// committers queued on the log's I/O mutex still share fsyncs. On a log
// whose fsync takes about 2 ms, 16 concurrent committers need at most
// one fsync per four commits (the queue lands near one per 16), every
// committer finds its record durable when its call returns, and a lone
// committer costs exactly one fsync per commit.
func TestWALCommitsBatchWithoutTimer(t *testing.T) {
	const (
		committers = 16
		perG       = 50
	)
	dir := t.TempDir()
	w, _ := openCountingWAL(t, dir, 2*time.Millisecond)
	f0 := w.Stats().Fsyncs
	var seen [committers * perG]uint64 // DurableLSN as each commit returned, by owner-1
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				owner := uint64(g*perG + i + 1)
				if err := w.CommitTxn(owner, true); err != nil {
					t.Error(err)
					return
				}
				seen[owner-1] = w.DurableLSN()
			}
		}(g)
	}
	wg.Wait()
	fsyncs := w.Stats().Fsyncs - f0
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	per := float64(fsyncs) / (committers * perG)
	t.Logf("%d concurrent commits took %d fsyncs (%.3f per commit)", committers*perG, fsyncs, per)
	if per > 0.25 {
		t.Errorf("%d fsyncs for %d concurrent commits (%.3f per commit): the ioMu queue does not batch", fsyncs, committers*perG, per)
	}
	recs, _, _, err := ReadWALRecords(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != committers*perG {
		t.Fatalf("log holds %d records, want %d", len(recs), committers*perG)
	}
	for _, r := range recs {
		if got := seen[r.Owner-1]; got < r.LSN {
			t.Fatalf("commit of owner %d (lsn %d) returned with the log durable only to %d", r.Owner, r.LSN, got)
		}
	}

	lone, cf := openCountingWAL(t, t.TempDir(), 0)
	defer lone.Close()
	s0 := cf.syncs.Load()
	for i := 1; i <= perG; i++ {
		if err := lone.CommitTxn(uint64(i), true); err != nil {
			t.Fatal(err)
		}
	}
	if got := cf.syncs.Load() - s0; got != perG {
		t.Errorf("a lone committer made %d fsyncs for %d commits, want one each", got, perG)
	}
}

// TestWALCloseFlushesUnwaitedUnits: records staged without a durability
// wait — a unit finished with Commit(false), a CommitTxn(_, false) — are
// written and fsynced by Close, and a WaitDurable on the closed log
// fails without touching the file.
func TestWALCloseFlushesUnwaitedUnits(t *testing.T) {
	dir := t.TempDir()
	w, cf := openCountingWAL(t, dir, 0)
	f, err := OpenFile(filepath.Join(dir, "data"), NewPool(64))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.AttachWAL(w)
	const pages = 3
	for i := 0; i < pages; i++ {
		if _, err := f.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	tx := w.Begin()
	tx.SetOwner(41)
	f.SetWALTxn(tx)
	for pg := uint32(0); pg < pages; pg++ {
		p, err := f.GetPage(pg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.WillModify(); err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(pg + 1)
		p.MarkDirty()
		p.Release()
	}
	f.SetWALTxn(nil)
	if err := tx.Commit(false); err != nil {
		t.Fatal(err)
	}
	if err := w.CommitTxn(41, false); err != nil {
		t.Fatal(err)
	}
	staged := w.Stats().Appends
	if cf.syncs.Load() != 1 { // the one at open
		t.Fatalf("unwaited units were flushed before Close (%d fsyncs)", cf.syncs.Load())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, _, _, err := ReadWALRecords(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(recs)) != staged {
		t.Fatalf("log holds %d records after Close, %d were staged", len(recs), staged)
	}
	count := map[byte]int{}
	for _, r := range recs {
		count[r.Type]++
	}
	if count[WALBeforeImage] != pages || count[WALAfterImage] != pages || count[WALCommit] != 1 || count[WALTxnCommit] != 1 {
		t.Fatalf("records by type after Close = %v", count)
	}
	if last := recs[len(recs)-1]; last.Type != WALTxnCommit || last.Owner != 41 || w.DurableLSN() != last.LSN {
		t.Fatalf("last record %+v, durable lsn %d", last, w.DurableLSN())
	}

	writes := cf.writes.Load()
	if err := w.WaitDurable(w.DurableLSN() + 1); !errors.Is(err, errWALClosed) {
		t.Fatalf("WaitDurable on a closed log = %v, want %v", err, errWALClosed)
	}
	if err := w.CommitTxn(42, true); !errors.Is(err, errWALClosed) {
		t.Fatalf("CommitTxn on a closed log = %v, want %v", err, errWALClosed)
	}
	if got := cf.writes.Load(); got != writes {
		t.Errorf("the closed log issued %d writes", got-writes)
	}
}
