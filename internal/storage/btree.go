package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/stage"
)

// B+Tree node page layout:
//
//	[0]     node type: 1 = leaf, 2 = internal
//	[1]     unused
//	[2:4)   uint16 entry count
//	[4:8)   uint32 next — leaf: right sibling (0 = none);
//	        internal: leftmost child
//	[8:10)  uint16 free-space end (entry bytes grow down from PageSize)
//	[10:..) slot directory: per entry uint16 offset, uint16 klen, uint16 vlen
//
// Page 0 is the meta page: magic and root page number.
const (
	btLeaf     = 1
	btInternal = 2

	btHeaderSize = 10
	btSlotSize   = 6

	btMagic = 0x42543031 // "BT01"
)

// MaxEntrySize bounds len(key)+len(value) for a single B-Tree entry so
// that at least three entries fit per node, keeping splits well-formed.
const MaxEntrySize = (PageDataSize-btHeaderSize)/3 - btSlotSize

func btType(d []byte) byte       { return d[0] }
func btCount(d []byte) int       { return int(binary.LittleEndian.Uint16(d[2:4])) }
func btNext(d []byte) uint32     { return binary.LittleEndian.Uint32(d[4:8]) }
func btFreeEnd(d []byte) int     { return int(binary.LittleEndian.Uint16(d[8:10])) }
func btSetType(d []byte, t byte) { d[0] = t }
func btSetCount(d []byte, n int) { binary.LittleEndian.PutUint16(d[2:4], uint16(n)) }
func btSetNext(d []byte, p uint32) {
	binary.LittleEndian.PutUint32(d[4:8], p)
}
func btSetFreeEnd(d []byte, n int) { binary.LittleEndian.PutUint16(d[8:10], uint16(n)) }

func btSlot(d []byte, i int) (off, klen, vlen int) {
	base := btHeaderSize + i*btSlotSize
	return int(binary.LittleEndian.Uint16(d[base : base+2])),
		int(binary.LittleEndian.Uint16(d[base+2 : base+4])),
		int(binary.LittleEndian.Uint16(d[base+4 : base+6]))
}

func btSetSlot(d []byte, i, off, klen, vlen int) {
	base := btHeaderSize + i*btSlotSize
	binary.LittleEndian.PutUint16(d[base:base+2], uint16(off))
	binary.LittleEndian.PutUint16(d[base+2:base+4], uint16(klen))
	binary.LittleEndian.PutUint16(d[base+4:base+6], uint16(vlen))
}

func btKey(d []byte, i int) []byte {
	off, klen, _ := btSlot(d, i)
	return d[off : off+klen]
}

func btVal(d []byte, i int) []byte {
	off, klen, vlen := btSlot(d, i)
	return d[off+klen : off+klen+vlen]
}

// btSearch returns the index of the first entry with key >= target and
// whether an exact match was found.
func btSearch(d []byte, target []byte) (int, bool) {
	lo, hi := 0, btCount(d)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(btKey(d, mid), target) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true
		default:
			hi = mid
		}
	}
	return lo, false
}

func btFreeSpace(d []byte) int {
	free := btFreeEnd(d)
	if free == 0 {
		free = PageDataSize // fresh zero page; entries stop short of the LSN trailer
	}
	return free - btHeaderSize - btCount(d)*btSlotSize
}

// btInsertAt inserts (key, val) at index i, returning false if the node
// lacks space even after compaction.
func btInsertAt(d []byte, i int, key, val []byte) bool {
	need := btSlotSize + len(key) + len(val)
	if btFreeSpace(d) < need {
		if btLiveSpace(d)+need > PageDataSize-btHeaderSize {
			return false
		}
		btCompact(d)
		if btFreeSpace(d) < need {
			return false
		}
	}
	n := btCount(d)
	free := btFreeEnd(d)
	if free == 0 {
		free = PageDataSize
	}
	off := free - len(key) - len(val)
	copy(d[off:], key)
	copy(d[off+len(key):], val)
	// Shift the slot directory up to make room at i.
	base := btHeaderSize
	copy(d[base+(i+1)*btSlotSize:base+(n+1)*btSlotSize], d[base+i*btSlotSize:base+n*btSlotSize])
	btSetSlot(d, i, off, len(key), len(val))
	btSetCount(d, n+1)
	btSetFreeEnd(d, off)
	return true
}

// btRemoveAt deletes the entry at index i (its bytes become dead space
// until the next compaction).
func btRemoveAt(d []byte, i int) {
	n := btCount(d)
	base := btHeaderSize
	copy(d[base+i*btSlotSize:base+(n-1)*btSlotSize], d[base+(i+1)*btSlotSize:base+n*btSlotSize])
	btSetCount(d, n-1)
}

// btLiveSpace returns the bytes needed to store all live entries.
func btLiveSpace(d []byte) int {
	total := btCount(d) * btSlotSize
	for i := 0; i < btCount(d); i++ {
		_, klen, vlen := btSlot(d, i)
		total += klen + vlen
	}
	return total
}

// btCompact rewrites the node with entries packed contiguously.
func btCompact(d []byte) {
	n := btCount(d)
	type ent struct{ k, v []byte }
	ents := make([]ent, n)
	for i := 0; i < n; i++ {
		ents[i] = ent{append([]byte(nil), btKey(d, i)...), append([]byte(nil), btVal(d, i)...)}
	}
	free := PageDataSize
	for i, e := range ents {
		free -= len(e.k) + len(e.v)
		copy(d[free:], e.k)
		copy(d[free+len(e.k):], e.v)
		btSetSlot(d, i, free, len(e.k), len(e.v))
	}
	btSetFreeEnd(d, free)
}

// BTree is a disk-backed B+Tree mapping byte-string keys to values.
// Keys are unique; callers that need duplicates (secondary indexes)
// append the TID to the key. Access is latched with a per-tree
// RWMutex: lookups and iterator refills hold the read side, Put/Delete
// the write side. Under MVCC the engine serializes writers per table
// with its statement write gate, so the latch's job is to keep reader
// page accesses race-free against the one active writer.
type BTree struct {
	file *File
	mu   sync.RWMutex
	root uint32
}

// CreateBTree initializes a new B+Tree in an empty file.
func CreateBTree(file *File) (*BTree, error) {
	if file.Pages() != 0 {
		return nil, fmt.Errorf("storage: CreateBTree on non-empty file %s", file.Path())
	}
	if _, err := file.Allocate(); err != nil { // meta
		return nil, err
	}
	rootPage, err := file.Allocate()
	if err != nil {
		return nil, err
	}
	t := &BTree{file: file, root: rootPage}
	p, err := file.GetPage(rootPage)
	if err != nil {
		return nil, err
	}
	if err := p.WillModify(); err != nil {
		p.Release()
		return nil, err
	}
	btSetType(p.Data, btLeaf)
	btSetFreeEnd(p.Data, PageDataSize)
	p.MarkDirty()
	p.Release()
	if err := t.writeMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

// OpenBTree opens an existing B+Tree.
func OpenBTree(file *File) (*BTree, error) {
	p, err := file.GetPage(0)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	if binary.LittleEndian.Uint32(p.Data[0:4]) != btMagic {
		return nil, fmt.Errorf("storage: %s is not a B-Tree file", file.Path())
	}
	return &BTree{
		file: file,
		root: binary.LittleEndian.Uint32(p.Data[4:8]),
	}, nil
}

func (t *BTree) writeMeta() error {
	p, err := t.file.GetPage(0)
	if err != nil {
		return err
	}
	if err := p.WillModify(); err != nil {
		p.Release()
		return err
	}
	binary.LittleEndian.PutUint32(p.Data[0:4], btMagic)
	binary.LittleEndian.PutUint32(p.Data[4:8], t.root)
	p.MarkDirty()
	p.Release()
	return nil
}

// File returns the underlying page file.
func (t *BTree) File() *File { return t.file }

// Height returns the tree height (1 = root is a leaf).
func (t *BTree) Height() (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	h := 1
	page := t.root
	for {
		p, err := t.file.GetPage(page)
		if err != nil {
			return 0, err
		}
		if btType(p.Data) == btLeaf {
			p.Release()
			return h, nil
		}
		page = btNext(p.Data)
		p.Release()
		h++
	}
}

// Get returns the value stored under key.
func (t *BTree) Get(key []byte) ([]byte, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	page := t.root
	for {
		p, err := t.file.GetPage(page)
		if err != nil {
			return nil, false, err
		}
		d := p.Data
		if btType(d) == btLeaf {
			i, exact := btSearch(d, key)
			if !exact {
				p.Release()
				return nil, false, nil
			}
			out := append([]byte(nil), btVal(d, i)...)
			p.Release()
			return out, true, nil
		}
		page = btChild(d, key)
		p.Release()
	}
}

// btChild returns the child page to follow for key in an internal node:
// the child associated with the greatest separator <= key, or the
// leftmost child if key precedes every separator.
func btChild(d []byte, key []byte) uint32 {
	i, exact := btSearch(d, key)
	if !exact {
		i--
	}
	if i < 0 {
		return btNext(d)
	}
	return binary.LittleEndian.Uint32(btVal(d, i))
}

type splitResult struct {
	split   bool
	sepKey  []byte
	newPage uint32
}

// Put inserts or overwrites key with val.
func (t *BTree) Put(key, val []byte) error {
	if len(key)+len(val) > MaxEntrySize {
		return fmt.Errorf("storage: B-Tree entry of %d bytes exceeds max %d", len(key)+len(val), MaxEntrySize)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	res, err := t.put(t.root, key, val)
	if err != nil || !res.split {
		return err
	}
	// Grow a new root.
	newRoot, err := t.file.Allocate()
	if err != nil {
		return err
	}
	p, err := t.file.GetPage(newRoot)
	if err != nil {
		return err
	}
	if err := p.WillModify(); err != nil {
		p.Release()
		return err
	}
	d := p.Data
	for i := range d[:PageDataSize] {
		d[i] = 0 // the LSN trailer survives the rebuild
	}
	btSetType(d, btInternal)
	btSetFreeEnd(d, PageDataSize)
	btSetNext(d, t.root)
	var child [4]byte
	binary.LittleEndian.PutUint32(child[:], res.newPage)
	btInsertAt(d, 0, res.sepKey, child[:])
	p.MarkDirty()
	p.Release()
	t.root = newRoot
	return t.writeMeta()
}

func (t *BTree) put(page uint32, key, val []byte) (splitResult, error) {
	p, err := t.file.GetPage(page)
	if err != nil {
		return splitResult{}, err
	}
	d := p.Data
	if btType(d) == btLeaf {
		i, exact := btSearch(d, key)
		if err := p.WillModify(); err != nil {
			p.Release()
			return splitResult{}, err
		}
		if exact {
			btRemoveAt(d, i)
			if !btInsertAt(d, i, key, val) {
				return t.splitLeaf(&p, page, i, key, val)
			}
			p.MarkDirty()
			p.Release()
			return splitResult{}, nil
		}
		if btInsertAt(d, i, key, val) {
			p.MarkDirty()
			p.Release()
			return splitResult{}, nil
		}
		return t.splitLeaf(&p, page, i, key, val)
	}

	childPage := btChild(d, key)
	p.Release()
	res, err := t.put(childPage, key, val)
	if err != nil || !res.split {
		return splitResult{}, err
	}
	// Insert the new separator into this internal node.
	p, err = t.file.GetPage(page)
	if err != nil {
		return splitResult{}, err
	}
	d = p.Data
	i, _ := btSearch(d, res.sepKey)
	var child [4]byte
	binary.LittleEndian.PutUint32(child[:], res.newPage)
	if err := p.WillModify(); err != nil {
		p.Release()
		return splitResult{}, err
	}
	if btInsertAt(d, i, res.sepKey, child[:]) {
		p.MarkDirty()
		p.Release()
		return splitResult{}, nil
	}
	up, err := t.splitInternal(&p, page, i, res.sepKey, child[:])
	return up, err
}

// splitLeaf splits the full leaf p, inserting (key, val) at logical
// index i, and returns the separator for the parent. p is released.
func (t *BTree) splitLeaf(p *Page, page uint32, i int, key, val []byte) (splitResult, error) {
	ents := collectEntries(p.Data, i, key, val)
	next := btNext(p.Data)

	newPage, err := t.file.Allocate()
	if err != nil {
		p.Release()
		return splitResult{}, err
	}
	np, err := t.file.GetPage(newPage)
	if err != nil {
		p.Release()
		return splitResult{}, err
	}
	if err := np.WillModify(); err != nil {
		p.Release()
		np.Release()
		return splitResult{}, err
	}

	mid := splitPoint(ents)
	rebuildNode(p.Data, btLeaf, newPage, ents[:mid])
	rebuildNode(np.Data, btLeaf, next, ents[mid:])
	sep := append([]byte(nil), ents[mid].k...)

	p.MarkDirty()
	np.MarkDirty()
	p.Release()
	np.Release()
	return splitResult{split: true, sepKey: sep, newPage: newPage}, nil
}

// splitInternal splits the full internal node p, inserting (key, child)
// at index i. The middle separator moves up. p is released.
func (t *BTree) splitInternal(p *Page, page uint32, i int, key, child []byte) (splitResult, error) {
	ents := collectEntries(p.Data, i, key, child)
	leftmost := btNext(p.Data)

	newPage, err := t.file.Allocate()
	if err != nil {
		p.Release()
		return splitResult{}, err
	}
	np, err := t.file.GetPage(newPage)
	if err != nil {
		p.Release()
		return splitResult{}, err
	}
	if err := np.WillModify(); err != nil {
		p.Release()
		np.Release()
		return splitResult{}, err
	}

	mid := splitPoint(ents)
	if mid == len(ents)-1 {
		mid-- // the moved-up separator must leave the right side non-empty
	}
	if mid < 1 {
		mid = 1
	}
	up := ents[mid]
	rightLeftmost := binary.LittleEndian.Uint32(up.v)
	rebuildNode(p.Data, btInternal, leftmost, ents[:mid])
	rebuildNode(np.Data, btInternal, rightLeftmost, ents[mid+1:])
	sep := append([]byte(nil), up.k...)

	p.MarkDirty()
	np.MarkDirty()
	p.Release()
	np.Release()
	return splitResult{split: true, sepKey: sep, newPage: newPage}, nil
}

type btEnt struct{ k, v []byte }

// collectEntries copies all entries of a node plus the pending (key,
// val) inserted at index i, in order.
func collectEntries(d []byte, i int, key, val []byte) []btEnt {
	n := btCount(d)
	ents := make([]btEnt, 0, n+1)
	for j := 0; j < n; j++ {
		if j == i {
			ents = append(ents, btEnt{append([]byte(nil), key...), append([]byte(nil), val...)})
		}
		ents = append(ents, btEnt{
			append([]byte(nil), btKey(d, j)...),
			append([]byte(nil), btVal(d, j)...),
		})
	}
	if i >= n {
		ents = append(ents, btEnt{append([]byte(nil), key...), append([]byte(nil), val...)})
	}
	return ents
}

// splitPoint chooses the index that balances the byte weight of the two
// halves.
func splitPoint(ents []btEnt) int {
	total := 0
	for _, e := range ents {
		total += len(e.k) + len(e.v) + btSlotSize
	}
	acc := 0
	for i, e := range ents {
		acc += len(e.k) + len(e.v) + btSlotSize
		if acc >= total/2 {
			if i+1 >= len(ents) {
				return len(ents) - 1
			}
			return i + 1
		}
	}
	return len(ents) / 2
}

// rebuildNode rewrites d as a node of the given type containing ents,
// with the given next pointer.
func rebuildNode(d []byte, typ byte, next uint32, ents []btEnt) {
	for i := range d[:PageDataSize] {
		d[i] = 0 // the LSN trailer survives the rebuild
	}
	btSetType(d, typ)
	btSetNext(d, next)
	btSetFreeEnd(d, PageDataSize)
	for i, e := range ents {
		btInsertAt(d, i, e.k, e.v)
	}
}

// Delete removes key if present, reporting whether it was found. Leaves
// are not rebalanced (lazy deletion, as with heap slots).
func (t *BTree) Delete(key []byte) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	page := t.root
	for {
		p, err := t.file.GetPage(page)
		if err != nil {
			return false, err
		}
		d := p.Data
		if btType(d) == btLeaf {
			i, exact := btSearch(d, key)
			if !exact {
				p.Release()
				return false, nil
			}
			if err := p.WillModify(); err != nil {
				p.Release()
				return false, err
			}
			btRemoveAt(d, i)
			p.MarkDirty()
			p.Release()
			return true, nil
		}
		page = btChild(d, key)
		p.Release()
	}
}

// Iterator walks leaf entries in key order, from a start key up to an
// optional exclusive upper bound. It is key-stable under concurrent
// writers: instead of remembering a (page, index) position — which
// splits and deletions would silently shift — it buffers the part of
// one leaf that lies inside the range per refill (copied under the
// tree's read latch) and re-seeks from the root for the successor of
// the last served key when the buffer drains. Between refills it holds
// no latch and no pins, so an iterator abandoned mid-scan cannot block
// writers.
//
// The bound is what makes a point probe one descent: a refill stops
// copying at the first key >= hi, and it latches the end of the scan
// when it stopped there or when the separators on the descent path
// prove that no key below hi can live to the right of this leaf. Only
// a range that really continues on another leaf descends again.
type Iterator struct {
	t      *BTree
	clk    *stage.Clock // charged for the refills' page pins; nil unless sampled
	err    error
	done   bool
	primed bool   // first refill happened; key is the resume point
	final  bool   // the buffered entries are the last of the range
	lo, hi []byte // range [lo, hi); nil = open end. Retained, not copied.
	target []byte // reused successor buffer
	arena  []byte // backing bytes of the buffered entries
	ents   []btEntSpan
	pos    int
	key    []byte
	val    []byte

	// Inline backing for the common case of a probe that buffers a
	// handful of short entries: the iterator is then its only
	// allocation. Larger refills grow onto the heap, sized to what the
	// leaf holds inside the range.
	entsBuf  [4]btEntSpan
	arenaBuf [96]byte
}

// btEntSpan locates one buffered entry inside the iterator arena.
type btEntSpan struct{ koff, kend, vend int }

// Seek positions an iterator on the range [lo, hi): the first entry
// with key >= lo (the first entry overall if lo is nil) up to, not
// including, the first entry with key >= hi (the end of the tree if hi
// is nil). Both slices are retained until the iterator is dropped and
// must not be modified meanwhile. The descent is deferred to the first
// Next call.
func (t *BTree) Seek(lo, hi []byte) *Iterator { return t.SeekClock(lo, hi, nil) }

// SeekClock is Seek charging every refill descent's page pins to clk.
func (t *BTree) SeekClock(lo, hi []byte, clk *stage.Clock) *Iterator {
	return &Iterator{t: t, clk: clk, lo: lo, hi: hi}
}

// Next advances the iterator, reporting whether an entry is available
// via Key/Value.
func (it *Iterator) Next() bool {
	if it.done {
		return false
	}
	if it.pos >= len(it.ents) {
		if it.final {
			it.done = true
			return false
		}
		if !it.refill() {
			return false
		}
	}
	e := it.ents[it.pos]
	it.pos++
	it.key = it.arena[e.koff:e.kend]
	it.val = it.arena[e.kend:e.vend]
	return true
}

// refill re-seeks from the root under the read latch and buffers the
// entries of the leaf holding the resume key that lie below the bound
// (following right siblings while empty). Returns false at the end of
// the range or on error.
func (it *Iterator) refill() bool {
	target := it.lo
	if it.primed {
		// Successor of the last served key (still intact in the arena):
		// key || 0x00 is the smallest byte string strictly greater.
		it.target = append(append(it.target[:0], it.key...), 0)
		target = it.target
	}
	it.primed = true
	if it.ents == nil {
		it.arena, it.ents = it.arenaBuf[:0], it.entsBuf[:0]
	}
	it.arena, it.ents, it.pos = it.arena[:0], it.ents[:0], 0

	it.t.mu.RLock()
	defer it.t.mu.RUnlock()
	// covered: every key below hi that is >= target lives in the leaf
	// the descent ends on. The leaf's key space ends at the next
	// separator of the deepest internal node that has one; with none on
	// the path it is the rightmost leaf.
	covered := it.hi != nil
	page := it.t.root
	var p Page
	for {
		if err := it.t.file.PinPageClock(page, &p, it.clk); err != nil {
			return it.fail(err)
		}
		d := p.Data
		if btType(d) == btLeaf {
			break
		}
		i, exact := btSearch(d, target)
		if !exact {
			i--
		}
		if it.hi != nil && i+1 < btCount(d) {
			covered = bytes.Compare(it.hi, btKey(d, i+1)) <= 0
		}
		if i < 0 {
			page = btNext(d)
		} else {
			page = binary.LittleEndian.Uint32(btVal(d, i))
		}
		p.Release()
	}
	for {
		d := p.Data
		first, _ := btSearch(d, target)
		end, n := first, btCount(d)
		if it.hi == nil {
			end = n
		} else {
			end, _ = btSearch(d, it.hi)
		}
		if end < n || covered {
			it.final = true
		}
		if end > first {
			size := 0
			for i := first; i < end; i++ {
				_, klen, vlen := btSlot(d, i)
				size += klen + vlen
			}
			// Sized to what is buffered; a scan that goes on to further
			// leaves takes a whole leaf's worth so the buffers are
			// allocated once, not once per slightly fuller leaf.
			count := end - first
			if !it.final {
				size, count = PageSize, max(count, n)
			}
			if size > cap(it.arena) {
				it.arena = make([]byte, 0, size)
			}
			if count > cap(it.ents) {
				it.ents = make([]btEntSpan, 0, count)
			}
			for i := first; i < end; i++ {
				off, klen, vlen := btSlot(d, i)
				koff := len(it.arena)
				it.arena = append(it.arena, d[off:off+klen+vlen]...)
				it.ents = append(it.ents, btEntSpan{koff, koff + klen, koff + klen + vlen})
			}
		}
		next := btNext(d)
		p.Release()
		if len(it.ents) > 0 {
			return true
		}
		if it.final || next == 0 {
			it.done = true
			return false
		}
		if err := it.t.file.PinPageClock(next, &p, it.clk); err != nil {
			return it.fail(err)
		}
	}
}

func (it *Iterator) fail(err error) bool {
	it.err = err
	it.done = true
	return false
}

// Key returns the current entry's key. Valid until the next call to
// Next.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current entry's value. Valid until the next call to
// Next.
func (it *Iterator) Value() []byte { return it.val }

// Err returns the first error the iterator encountered.
func (it *Iterator) Err() error { return it.err }
