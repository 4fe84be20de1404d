package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/stage"
)

var nextFileID atomic.Uint32

// File is a page-addressed file managed through a buffer pool. All page
// access goes through Read/Write page handles so that every physical
// I/O is counted — the optimizer's cost model and the monitor both feed
// on these counters.
type File struct {
	id   uint32
	path string
	base string // filepath.Base(path): the stable name WAL records carry
	pool *Pool

	// wal, when set, makes every write-back of this file's pages wait
	// for the WAL to be durable up to the page's LSN, and curTxn (the
	// statement transaction currently mutating this file, set under the
	// table's statement write gate) receives before-image capture calls
	// from Page.WillModify. Atomic because MVCC readers run GetPage
	// concurrently with the writer installing/clearing these.
	wal    *WAL
	curTxn atomic.Pointer[WalTxn]

	mu    sync.Mutex
	f     *os.File
	pages uint32 // number of allocated pages
}

// OpenFile opens (or creates) the page file at path, attached to pool.
func OpenFile(path string, pool *Pool) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s has non-page-aligned size %d", path, st.Size())
	}
	return &File{
		id:    nextFileID.Add(1),
		path:  path,
		base:  filepath.Base(path),
		pool:  pool,
		f:     f,
		pages: uint32(st.Size() / PageSize),
	}, nil
}

// AttachWAL wires the file into the write-ahead log: page write-backs
// respect the WAL-before-data barrier and WillModify routes to the
// current transaction. Must be called before any page of the file is
// modified under logging.
func (f *File) AttachWAL(w *WAL) { f.wal = w }

// SetWALTxn points WillModify at the statement transaction currently
// mutating this file. Callers hold the table's statement write gate, so
// at most one non-nil value is installed at a time; the atomic only
// protects concurrent readers.
func (f *File) SetWALTxn(t *WalTxn) { f.curTxn.Store(t) }

// walBarrier enforces WAL-before-data: the page image about to be
// written carries its last LSN in the trailer, and the log must be
// durable at least that far before the page may reach disk.
func (f *File) walBarrier(data []byte) error {
	if f.wal == nil {
		return nil
	}
	return f.wal.syncTo(PageLSN(data))
}

// Path returns the file's path on disk.
func (f *File) Path() string { return f.path }

// Pages returns the number of allocated pages.
func (f *File) Pages() uint32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pages
}

// SizeBytes returns the logical file size in bytes.
func (f *File) SizeBytes() int64 { return int64(f.Pages()) * PageSize }

// Allocate extends the file by one zero page and returns its number.
// The page is materialized lazily: it hits disk when flushed.
func (f *File) Allocate() (uint32, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	page := f.pages
	f.pages++
	return page, nil
}

// readPage reads the given page into buf. Pages past the current end of
// the on-disk file read as zeroes with n == 0 (they exist only in the
// pool until flushed).
func (f *File) readPage(page uint32, buf []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if page >= f.pages {
		return 0, fmt.Errorf("storage: read past end: page %d of %d in %s", page, f.pages, f.path)
	}
	n, err := f.f.ReadAt(buf, int64(page)*PageSize)
	if err == io.EOF || (err == nil && n < PageSize) {
		// Allocated but never flushed: serve zeroes.
		for i := n; i < PageSize; i++ {
			buf[i] = 0
		}
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("storage: read page %d of %s: %w", page, f.path, err)
	}
	return n, nil
}

// writePage writes buf to the given page on disk.
func (f *File) writePage(page uint32, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.f.WriteAt(buf, int64(page)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d of %s: %w", page, f.path, err)
	}
	return nil
}

// Flush writes back all dirty cached pages of this file.
func (f *File) Flush() error { return f.pool.flushFile(f) }

// Sync flushes dirty pages and fsyncs the file.
func (f *File) Sync() error {
	if err := f.Flush(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.f.Sync(); err != nil {
		return err
	}
	f.pool.fsyncs.Add(1)
	return nil
}

// Close flushes and closes the file.
func (f *File) Close() error {
	if err := f.Flush(); err != nil {
		return err
	}
	f.pool.dropFile(f)
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.f.Close()
}

// Remove closes the file, discards its cached pages and deletes it from
// disk. Used by DROP TABLE / DROP INDEX and MODIFY rebuilds.
func (f *File) Remove() error {
	f.pool.dropFile(f)
	f.mu.Lock()
	ff := f.f
	path := f.path
	f.pages = 0
	f.mu.Unlock()
	if err := ff.Close(); err != nil {
		return err
	}
	return os.Remove(path)
}

// Page is a pinned page handle. Data is valid until Release.
type Page struct {
	f     *File
	fr    *frame
	Data  []byte
	dirty bool
}

// GetPage pins the given page for reading or writing. The handle is
// returned by value — a page get allocates nothing; callers keep it in a
// local and Release it.
func (f *File) GetPage(page uint32) (Page, error) {
	var p Page
	err := f.PinPageClock(page, &p, nil)
	return p, err
}

// PinPage pins the given page into a caller-owned handle that outlives
// the call site (an iterator field). p must be released (or never
// pinned) before being reused. Batch scans pin one page per batch step
// through a single reused handle.
func (f *File) PinPage(page uint32, p *Page) error { return f.PinPageClock(page, p, nil) }

// PinPageClock is PinPage charging the get to clk's pool stages: a
// sampled statement's read paths pass their session's clock, every
// other caller nil.
func (f *File) PinPageClock(page uint32, p *Page, clk *stage.Clock) error {
	from := clk.Switch(stage.Pool)
	fr, err := f.pool.get(f, page, clk)
	clk.Switch(from)
	if err != nil {
		return err
	}
	p.f, p.fr, p.Data, p.dirty = f, fr, fr.data[:], false
	return nil
}

// MarkDirty records that the caller modified the page.
func (p *Page) MarkDirty() { p.dirty = true }

// WillModify must be called before mutating the page's bytes. When a
// logged transaction owns the file it captures the before-image (once
// per page per transaction) and stamps the page LSN; otherwise it is
// free. Mutators still call MarkDirty as before.
func (p *Page) WillModify() error {
	if p.f == nil || p.f.wal == nil {
		return nil
	}
	return p.f.curTxn.Load().captureBefore(p)
}

// Release unpins the page. The unpin is lock-free: it touches only
// the frame's own atomics, never a pool or shard lock.
func (p *Page) Release() {
	if p.fr == nil {
		return
	}
	p.fr.unpin(p.dirty)
	p.fr = nil
	p.Data = nil
}
