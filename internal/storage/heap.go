package storage

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/stage"
)

// TID identifies a record: page number in the high 32 bits, slot in the
// low 16. This mirrors the Ingres tuple identifier that secondary
// indexes store next to the key.
type TID uint64

// NewTID packs a page/slot pair.
func NewTID(page uint32, slot uint16) TID {
	return TID(uint64(page)<<16 | uint64(slot))
}

// Page returns the page component.
func (t TID) Page() uint32 { return uint32(t >> 16) }

// Slot returns the slot component.
func (t TID) Slot() uint16 { return uint16(t) }

// String renders the TID as "page.slot".
func (t TID) String() string { return fmt.Sprintf("%d.%d", t.Page(), t.Slot()) }

// Slotted page layout (heap data pages):
//
//	[0:2)  uint16 slot count
//	[2:4)  uint16 free-space end (records grow down from PageSize)
//	[4:..) slot directory: per slot uint16 offset, uint16 length
//
// A slot with offset 0xFFFF is dead (deleted).
const (
	heapHeaderSize = 4
	slotSize       = 4
	deadSlot       = 0xFFFF
)

func pageSlotCount(d []byte) int   { return int(binary.LittleEndian.Uint16(d[0:2])) }
func pageFreeEnd(d []byte) int     { return int(binary.LittleEndian.Uint16(d[2:4])) }
func setSlotCount(d []byte, n int) { binary.LittleEndian.PutUint16(d[0:2], uint16(n)) }
func setFreeEnd(d []byte, n int)   { binary.LittleEndian.PutUint16(d[2:4], uint16(n)) }

func slotEntry(d []byte, i int) (off, length int) {
	base := heapHeaderSize + i*slotSize
	return int(binary.LittleEndian.Uint16(d[base : base+2])),
		int(binary.LittleEndian.Uint16(d[base+2 : base+4]))
}

func setSlotEntry(d []byte, i, off, length int) {
	base := heapHeaderSize + i*slotSize
	binary.LittleEndian.PutUint16(d[base:base+2], uint16(off))
	binary.LittleEndian.PutUint16(d[base+2:base+4], uint16(length))
}

func pageFreeSpace(d []byte) int {
	free := pageFreeEnd(d)
	if free == 0 {
		free = PageDataSize // fresh zero page; records stop short of the LSN trailer
	}
	used := heapHeaderSize + pageSlotCount(d)*slotSize
	return free - used
}

// MaxRecordSize is the largest record a heap page (or B-Tree entry) can
// hold. Records above this are rejected at insert time.
const MaxRecordSize = PageDataSize - heapHeaderSize - slotSize - 64

// Heap is an unordered record file: the Ingres HEAP storage structure.
// Pages allocated before FinishLoad (or up to MainPages at creation)
// are "main" pages; growth beyond that is counted as overflow pages,
// which is exactly the signal the analyzer's restructuring rule uses.
// Heap access is latched with a per-heap RWMutex: readers (Get, Iter,
// Scan, batch fills) hold the read side per operation — the batch
// iterator for the life of a batch, since its records alias pinned
// frames — and mutators (Insert, Delete, SetXmax, vacuum's FreeSlot)
// hold the write side. Under MVCC, readers run concurrently with one
// writer per table (the engine's statement write gate serializes
// writers), so the latch is what keeps page bytes race-free.
type Heap struct {
	file      *File
	mainPages uint32 // pages considered part of the initial extent
	rows      atomic.Int64
	lastPage  uint32 // insertion hint
	// tailFree is the free space of lastPage, or -1 until SizeBytes or
	// an insert has looked; only inserts change a page's free space.
	tailFree  atomic.Int32
	mu        sync.RWMutex
	freeSlots []TID // vacuum-reclaimed slots awaiting reuse
}

// OpenHeap opens a heap over the given file. mainPages is the size of
// the initial extent for overflow accounting; rows is the persisted row
// count (the catalog stores both).
func OpenHeap(file *File, mainPages uint32, rows int64) *Heap {
	if mainPages == 0 {
		mainPages = 1
	}
	h := &Heap{file: file, mainPages: mainPages}
	h.rows.Store(rows)
	h.tailFree.Store(-1)
	if n := file.Pages(); n > 0 {
		h.lastPage = n - 1
	}
	return h
}

// File returns the underlying page file.
func (h *Heap) File() *File { return h.file }

// Rows returns the live record count. Under MVCC this counts committed
// visible rows: Insert/Delete do not touch it; the engine applies each
// transaction's net delta at commit via AdjustRows, so aborted inserts
// and vacuumed dead versions are never counted.
func (h *Heap) Rows() int64 { return h.rows.Load() }

// AdjustRows applies a committed transaction's net row delta.
func (h *Heap) AdjustRows(delta int64) { h.rows.Add(delta) }

// Pages returns the total number of data pages.
func (h *Heap) Pages() uint32 { return h.file.Pages() }

// SizeBytes returns the bytes the heap occupies: its pages, the one
// inserts append to only as far as it is filled. A table that takes in
// a few rows at a time thus grows by those rows, not by nothing until
// a page boundary and 4 KB then. It reads no page once the tail's fill
// is known, so sampling it does not move the pool's counters.
func (h *Heap) SizeBytes() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	size := h.file.SizeBytes()
	if size == 0 {
		return 0
	}
	free := h.tailFree.Load()
	if free < 0 {
		p, err := h.file.GetPage(h.lastPage)
		if err != nil {
			return size
		}
		free = int32(pageFreeSpace(p.Data))
		p.Release()
		h.tailFree.Store(free)
	}
	return size - int64(free)
}

// MainPages returns the size of the initial extent.
func (h *Heap) MainPages() uint32 { return h.mainPages }

// OverflowPages returns the number of pages beyond the initial extent.
func (h *Heap) OverflowPages() uint32 {
	total := h.file.Pages()
	if total <= h.mainPages {
		return 0
	}
	return total - h.mainPages
}

// SetMainPages resets the initial extent, e.g. after a MODIFY rebuild
// where every page becomes a main page again.
func (h *Heap) SetMainPages(n uint32) {
	if n == 0 {
		n = 1
	}
	h.mainPages = n
}

// Insert stores a record and returns its TID, preferring a
// vacuum-reclaimed slot whose page has room before appending to the
// tail. It does not touch the row counter — the engine applies the
// committed net delta via AdjustRows.
func (h *Heap) Insert(rec []byte) (TID, error) {
	if len(rec) > MaxRecordSize {
		return 0, fmt.Errorf("storage: record of %d bytes exceeds max %d", len(rec), MaxRecordSize)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if tid, ok, err := h.insertIntoFreeSlot(rec); err != nil || ok {
		return tid, err
	}
	need := len(rec) + slotSize
	for {
		if h.file.Pages() == 0 {
			if _, err := h.file.Allocate(); err != nil {
				return 0, err
			}
			h.lastPage = 0
		}
		p, err := h.file.GetPage(h.lastPage)
		if err != nil {
			return 0, err
		}
		if pageFreeSpace(p.Data) >= need {
			tid, err := insertIntoPage(&p, h.lastPage, rec)
			h.tailFree.Store(int32(pageFreeSpace(p.Data)))
			p.Release()
			return tid, err
		}
		p.Release()
		page, err := h.file.Allocate()
		if err != nil {
			return 0, err
		}
		h.lastPage = page
	}
}

// insertIntoFreeSlot tries a few reclaimed slots: the slot-directory
// entry is reused, the record bytes land in the page's free space (the
// old record's bytes stay dead until a MODIFY rebuild compacts them,
// as before). Candidates whose page is too full go back on the list.
func (h *Heap) insertIntoFreeSlot(rec []byte) (TID, bool, error) {
	const tries = 4
	for i := 0; i < tries && len(h.freeSlots) > 0; i++ {
		tid := h.freeSlots[len(h.freeSlots)-1]
		h.freeSlots = h.freeSlots[:len(h.freeSlots)-1]
		p, err := h.file.GetPage(tid.Page())
		if err != nil {
			return 0, false, err
		}
		d := p.Data
		slotOK := int(tid.Slot()) < pageSlotCount(d)
		off := deadSlot
		if slotOK {
			off, _ = slotEntry(d, int(tid.Slot()))
		}
		if !slotOK || off != deadSlot || pageFreeSpace(d) < len(rec) {
			p.Release()
			if slotOK && off == deadSlot {
				h.freeSlots = append([]TID{tid}, h.freeSlots...)
			}
			continue
		}
		if err := p.WillModify(); err != nil {
			p.Release()
			return 0, false, err
		}
		free := pageFreeEnd(d)
		if free == 0 {
			free = PageDataSize
		}
		newOff := free - len(rec)
		copy(d[newOff:], rec)
		setSlotEntry(d, int(tid.Slot()), newOff, len(rec))
		setFreeEnd(d, newOff)
		if tid.Page() == h.lastPage {
			h.tailFree.Store(int32(pageFreeSpace(d)))
		}
		p.MarkDirty()
		p.Release()
		return tid, true, nil
	}
	return 0, false, nil
}

func insertIntoPage(p *Page, pageNo uint32, rec []byte) (TID, error) {
	if err := p.WillModify(); err != nil {
		return 0, err
	}
	d := p.Data
	n := pageSlotCount(d)
	free := pageFreeEnd(d)
	if free == 0 {
		free = PageDataSize
	}
	off := free - len(rec)
	copy(d[off:], rec)
	setSlotEntry(d, n, off, len(rec))
	setSlotCount(d, n+1)
	setFreeEnd(d, off)
	p.MarkDirty()
	return NewTID(pageNo, uint16(n)), nil
}

// Get returns the record stored at tid, or ok=false if it was deleted.
func (h *Heap) Get(tid TID) (rec []byte, ok bool, err error) {
	return h.GetBuf(tid, nil, nil)
}

// GetBuf is Get appending the record to buf (usually a reused buffer
// cut to length zero) instead of allocating one per call, with its page
// get charged to clk (nil: a statement that is not sampled).
func (h *Heap) GetBuf(tid TID, buf []byte, clk *stage.Clock) (rec []byte, ok bool, err error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if tid.Page() >= h.file.Pages() {
		return nil, false, fmt.Errorf("storage: TID %s past end of heap", tid)
	}
	var p Page
	if err := h.file.PinPageClock(tid.Page(), &p, clk); err != nil {
		return nil, false, err
	}
	defer p.Release()
	if int(tid.Slot()) >= pageSlotCount(p.Data) {
		return nil, false, fmt.Errorf("storage: TID %s slot out of range", tid)
	}
	off, length := slotEntry(p.Data, int(tid.Slot()))
	if off == deadSlot {
		return nil, false, nil
	}
	return append(buf, p.Data[off:off+length]...), true, nil
}

// Delete removes the record at tid. Space is not reclaimed until the
// table is rebuilt (MODIFY), matching Ingres heap behaviour. Like
// Insert, it leaves the row counter to commit-time AdjustRows.
func (h *Heap) Delete(tid TID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, err := h.file.GetPage(tid.Page())
	if err != nil {
		return err
	}
	defer p.Release()
	if int(tid.Slot()) >= pageSlotCount(p.Data) {
		return fmt.Errorf("storage: delete %s: slot out of range", tid)
	}
	off, length := slotEntry(p.Data, int(tid.Slot()))
	if off == deadSlot {
		return nil
	}
	if err := p.WillModify(); err != nil {
		return err
	}
	setSlotEntry(p.Data, int(tid.Slot()), deadSlot, length)
	p.MarkDirty()
	return nil
}

// Scan calls fn for every live record in physical order. Returning
// false from fn stops the scan early.
func (h *Heap) Scan(fn func(tid TID, rec []byte) (bool, error)) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	pages := h.file.Pages()
	for pg := uint32(0); pg < pages; pg++ {
		p, err := h.file.GetPage(pg)
		if err != nil {
			return err
		}
		n := pageSlotCount(p.Data)
		for s := 0; s < n; s++ {
			off, length := slotEntry(p.Data, s)
			if off == deadSlot {
				continue
			}
			cont, err := fn(NewTID(pg, uint16(s)), p.Data[off:off+length])
			if err != nil || !cont {
				p.Release()
				return err
			}
		}
		p.Release()
	}
	return nil
}

// ScanChunk resumes a physical-order scan at (page, slot), calls fn
// for up to maxRows live records, and returns the position at which
// the next chunk should resume. done is true once the scan passed the
// last page that existed when this chunk ran. A (page, slot) position
// is stable across interleaved DML: deletes mark slots dead but never
// compact them, and inserts only land at or past the current last
// page — so an online index build can let writers in between chunks
// without missing or double-visiting a record that existed at
// build start.
func (h *Heap) ScanChunk(page uint32, slot int, maxRows int, fn func(tid TID, rec []byte) error) (nextPage uint32, nextSlot int, done bool, err error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	pages := h.file.Pages()
	visited := 0
	for pg := page; pg < pages; pg++ {
		p, err := h.file.GetPage(pg)
		if err != nil {
			return pg, slot, false, err
		}
		n := pageSlotCount(p.Data)
		s := 0
		if pg == page {
			s = slot
		}
		for ; s < n; s++ {
			if visited >= maxRows {
				p.Release()
				return pg, s, false, nil
			}
			off, length := slotEntry(p.Data, s)
			if off == deadSlot {
				continue
			}
			if err := fn(NewTID(pg, uint16(s)), p.Data[off:off+length]); err != nil {
				p.Release()
				return pg, s, false, err
			}
			visited++
		}
		p.Release()
	}
	return pages, 0, true, nil
}

// Truncate drops every record, resetting the heap to a single empty
// main page extent.
func (h *Heap) Truncate() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	path := h.file.Path()
	pool := h.file.pool
	wal := h.file.wal
	if err := h.file.Remove(); err != nil {
		return err
	}
	nf, err := OpenFile(path, pool)
	if err != nil {
		return err
	}
	nf.wal = wal // keep the WAL-before-data barrier across the rebuild
	h.file = nf
	h.rows.Store(0)
	h.lastPage = 0
	h.tailFree.Store(-1)
	h.mainPages = 1
	h.freeSlots = nil
	return nil
}

// ResetRows overrides the in-memory row count. Crash recovery recounts
// rows by scanning after redo and calls this to resynchronize the
// counter the catalog persists.
func (h *Heap) ResetRows(n int64) { h.rows.Store(n) }

// RecBatch is a reusable batch of raw heap records. Recs slices alias
// the page frames the filling iterator keeps pinned for the life of
// the batch (zero-copy): they are valid only until the next NextBatchMax
// or Close call on the iterator that filled them. Callers that retain
// a record beyond that must copy it.
type RecBatch struct {
	TIDs []TID
	Recs [][]byte
	// Sel is the batch's visibility selection vector: when non-nil,
	// only the record indexes it lists are visible to the filling
	// statement's snapshot and the rest must be skipped. The engine
	// fills it after each NextBatchMax without copying any record, so
	// the batch path stays zero-copy under MVCC. nil means every record
	// is selected.
	Sel []int
}

// reset clears the batch for refilling, keeping all capacity.
func (b *RecBatch) reset() {
	b.TIDs = b.TIDs[:0]
	b.Recs = b.Recs[:0]
	b.Sel = nil
}

// appendRec records one record slice (aliasing a pinned frame).
func (b *RecBatch) appendRec(tid TID, rec []byte) {
	b.TIDs = append(b.TIDs, tid)
	b.Recs = append(b.Recs, rec)
}

// MaxBatchPins bounds the pages one batch may keep pinned, so a batch
// over sparse pages cannot monopolize a small buffer pool. When the
// cap is hit the batch simply comes up short of maxRows; the next call
// continues from the following page.
const MaxBatchPins = 16

// HeapBatchIter scans a heap page-at-a-time: each page is pinned once
// and all its live slots are handed to the caller's RecBatch as slices
// aliasing the pinned frame — no per-record copy or allocation. The
// pins are held until the next NextBatchMax or Close call, which is
// what keeps the aliased records valid for the life of the batch. Not
// safe for concurrent use.
type HeapBatchIter struct {
	h       *Heap
	page    uint32
	bound   uint32             // exclusive page bound for morsel scans; 0 = whole heap
	pins    [MaxBatchPins]Page // frames backing the current batch
	npins   int
	err     error
	latched bool         // read latch held for the life of the current batch
	clk     *stage.Clock // charged for the page pins; nil unless sampled
}

// ScanBatch returns a batch iterator positioned before the first page,
// charging the scan's page pins to clk (nil: none).
func (h *Heap) ScanBatch(clk *stage.Clock) *HeapBatchIter {
	return &HeapBatchIter{h: h, clk: clk}
}

// ScanBatchRange returns a batch iterator over the page range [lo, hi)
// — one morsel of a parallel scan. Disjoint ranges touch disjoint pages
// and slot directories, so concurrent iterators (each confined to its
// own worker goroutine) never share mutable state; they contend only on
// the heap's read latch, which admits any number of readers. Pages past
// the heap's current end are simply absent, so a stale hi is safe.
func (h *Heap) ScanBatchRange(lo, hi uint32) *HeapBatchIter {
	return &HeapBatchIter{h: h, page: lo, bound: hi}
}

// release unpins every frame backing the current batch and drops the
// heap read latch the batch held (writers were excluded while the
// caller consumed records aliasing the pinned frames).
func (it *HeapBatchIter) release() {
	for i := 0; i < it.npins; i++ {
		it.pins[i].Release()
	}
	it.npins = 0
	if it.latched {
		it.latched = false
		it.h.mu.RUnlock()
	}
}

// Close releases the frames pinned for the last batch (and the read
// latch with them), invalidating its records. Callers that abandon the
// iterator before exhaustion must call it; an exhausted iterator holds
// no pins, so Close is then a no-op. The iterator stays usable: a caller
// that has copied what it needs out of a batch may Close to stop
// blocking writers and call NextBatchMax again later.
func (it *HeapBatchIter) Close() error {
	it.release()
	return nil
}

// NextBatchMax fills b with live records, whole pages at a time, until
// at least maxRows records are batched, MaxBatchPins pages are pinned,
// or the heap is exhausted (the last page added may overshoot maxRows;
// a page is never split across batches). maxRows <= 0 means one
// non-empty page per batch. Returns false when no records remain. The
// records in b alias pages the iterator keeps pinned and are
// invalidated by the next NextBatchMax or Close call on it.
func (it *HeapBatchIter) NextBatchMax(b *RecBatch, maxRows int) (bool, error) {
	if it.err != nil {
		return false, it.err
	}
	it.release() // invalidates the previous batch's records
	b.reset()
	it.h.mu.RLock()
	it.latched = true
	pages := it.h.file.Pages()
	if it.bound > 0 && it.bound < pages {
		pages = it.bound
	}
	for it.page < pages && it.npins < MaxBatchPins {
		p := &it.pins[it.npins]
		if err := it.h.file.PinPageClock(it.page, p, it.clk); err != nil {
			it.err = err
			it.release()
			return false, err
		}
		d := p.Data
		n := pageSlotCount(d)
		before := len(b.Recs)
		for s := 0; s < n; s++ {
			off, length := slotEntry(d, s)
			if off == deadSlot {
				continue
			}
			b.appendRec(NewTID(it.page, uint16(s)), d[off:off+length])
		}
		if len(b.Recs) == before {
			p.Release() // no live records: nothing aliases this frame
		} else {
			it.npins++
		}
		it.page++
		if maxRows > 0 {
			if len(b.Recs) >= maxRows {
				break
			}
		} else if len(b.Recs) > 0 {
			break
		}
	}
	if len(b.Recs) == 0 {
		it.release() // exhausted: hold neither pins nor the latch
		return false, nil
	}
	return true, nil
}
