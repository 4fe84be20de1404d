// Package storage implements the paged storage substrate of the engine:
// a shared buffer pool over page files, slotted heap files with Ingres
// style main/overflow page accounting, and a disk-backed B+Tree used for
// the BTREE storage structure and for secondary indexes.
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// PageSize is the size of every on-disk page in bytes.
const PageSize = 4096

// PoolStats exposes buffer pool counters. All fields except Resident
// are cumulative.
type PoolStats struct {
	Hits      int64 // page requests served from memory
	Misses    int64 // page requests that required a disk read
	DiskReads int64 // physical page reads
	DiskWrite int64 // physical page writes
	Evictions int64 // frames evicted to make room
	PinWaits  int64 // backpressure waits because every frame in a shard was pinned
	Resident  int64 // pages currently cached (gauge)
	Fsyncs    int64 // data-file fsyncs issued through File.Sync
}

type pageKey struct {
	file uint32
	page uint32
}

// hash mixes the key through a splitmix64-style finalizer so that
// consecutive pages of one file spread across all shards.
func (k pageKey) hash() uint32 {
	x := uint64(k.file)<<32 | uint64(k.page)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return uint32(x)
}

// frame is one resident page. A frame is published in its shard's map
// only after its disk read completed (the load latch lives in the
// shard's loading table), so holding a *frame from a hit always means
// the data is valid. pins and dirty are atomics: unpin touches no lock.
type frame struct {
	key   pageKey
	file  *File
	pins  atomic.Int32  // > 0 blocks eviction
	ref   atomic.Uint32 // clock reference bit (second chance)
	dirty atomic.Uint32 // needs write-back before eviction
	lsn   atomic.Uint64 // page-LSN trailer mirror; gates write-back behind the WAL
	data  [PageSize]byte
}

// unpin releases one pin, optionally marking the frame dirty. It is
// lock-free: the dirty bit is set before the pin is released, so an
// evictor that observes pins == 0 also observes the dirty bit.
func (fr *frame) unpin(dirty bool) {
	if dirty {
		fr.dirty.Store(1)
	}
	fr.pins.Add(-1)
}

// pendingLoad is the load latch for a page being read from disk: a
// concurrent getter of the same page blocks on ready instead of
// observing a half-read frame, and sees err exactly as the reading
// goroutine did.
type pendingLoad struct {
	ready   chan struct{} // closed when the read finished
	err     error         // valid after ready is closed
	dropped bool          // set by dropFile: do not publish the frame
}

// pendingWrite is the write-back latch for a page whose latest content
// is in flight to disk but no longer (or not currently safely) in the
// map: a getter that misses must wait for it, or it could re-read the
// page's stale on-disk bytes into the cache (a lost update). At most
// one pendingWrite exists per key; evictors and flushers check the
// table before registering.
type pendingWrite struct {
	done chan struct{} // closed when the write finished
	err  error         // valid after done is closed
}

// poolShard is one partition of the pool: its own lock, frame map,
// fixed clock of frame slots, and in-flight load/write tables. Counter
// fields are atomics so Stats never takes a shard lock.
type poolShard struct {
	mu      sync.Mutex
	frames  map[pageKey]*frame       // published (fully loaded) frames
	loading map[pageKey]*pendingLoad // reads in flight
	writing map[pageKey]*pendingWrite
	clock   []*frame // slots; nil = free. Grows on Resize, never shrinks.
	free    []int    // indices of free clock slots, all < limit
	limit   int      // slots [0, limit) are usable; the rest are retired
	hand    int      // clock hand

	hits      atomic.Int64
	diskReads atomic.Int64
	evictions atomic.Int64
	pinWaits  atomic.Int64
	resident  atomic.Int64

	_ [64]byte // keep neighbouring shards off this shard's cache lines
}

// Sharding parameters: enough shards that concurrent sessions rarely
// collide, but never so many that one shard cannot absorb a batch
// scan's MaxBatchPins pinned pages with room to spare.
const (
	maxPoolShards      = 16
	minFramesPerShard  = 32
	defaultPinWaitStep = time.Millisecond
	defaultPinWaitMax  = 2 * time.Second

	// flushFrame needs a moment where the frame is unpinned to take a
	// consistent snapshot of the page; pins are short-lived, so it polls
	// on a fine step. The cap only guards against a leaked pin turning a
	// checkpoint into a silent hang.
	flushPinWaitStep = 100 * time.Microsecond
	flushPinWaitMax  = 30 * time.Second
)

// Pool is a shared buffer pool. A single pool serves every file of a
// database so that cache pressure is global, as in a real DBMS. Frames
// are partitioned into power-of-two shards by page-key hash; each
// shard runs an independent clock-sweep (second chance) eviction, so
// there is no global lock and no O(resident) scan on eviction.
type Pool struct {
	capacity  atomic.Int64 // current frame budget; Resize changes it at runtime
	shardMask uint32
	shards    []*poolShard

	// Backpressure instead of hard failure when every frame of a shard
	// is pinned: get retries every pinWaitStep up to pinWaitMax before
	// reporting exhaustion, counting each wait in PinWaits.
	pinWaitStep time.Duration
	pinWaitMax  time.Duration

	resizeMu sync.Mutex // serializes Resize calls

	// misses and diskWrite are pool-wide rather than per shard: they
	// move only when a page is read or written, which dwarfs a shared
	// counter, and the statement path reads exactly these two around
	// every monitored SELECT (IOCounts) — two loads instead of a walk
	// over every shard's counter block.
	misses    atomic.Int64
	diskWrite atomic.Int64
	fsyncs    atomic.Int64 // data-file fsyncs (incremented by File.Sync)
}

// NewPool creates a buffer pool holding up to capacity pages. Capacity
// below 8 is raised to 8.
func NewPool(capacity int) *Pool {
	if capacity < 8 {
		capacity = 8
	}
	nshards := 1
	for nshards < maxPoolShards && nshards*2*minFramesPerShard <= capacity {
		nshards *= 2
	}
	p := &Pool{
		shardMask:   uint32(nshards - 1),
		shards:      make([]*poolShard, nshards),
		pinWaitStep: defaultPinWaitStep,
		pinWaitMax:  defaultPinWaitMax,
	}
	p.capacity.Store(int64(capacity))
	base, rem := capacity/nshards, capacity%nshards
	for i := range p.shards {
		c := base
		if i < rem {
			c++
		}
		sh := &poolShard{
			frames:  make(map[pageKey]*frame, c),
			loading: map[pageKey]*pendingLoad{},
			writing: map[pageKey]*pendingWrite{},
			clock:   make([]*frame, c),
			free:    make([]int, c),
			limit:   c,
		}
		for s := 0; s < c; s++ {
			sh.free[s] = c - 1 - s // pop from the tail: slot 0 first
		}
		p.shards[i] = sh
	}
	return p
}

// freeSlotLocked returns a clock slot to the shard's free list unless a
// shrink retired it while it was in use — retired slots simply vanish,
// which is how a live Resize converges without waiting on pinned frames
// or in-flight write-backs. sh.mu must be held.
func (sh *poolShard) freeSlotLocked(slot int) {
	if slot < sh.limit {
		sh.free = append(sh.free, slot)
	}
}

// Resize changes the pool's frame budget at runtime and returns the
// effective new capacity. The shard count is fixed at construction;
// each shard's slot limit is raised (new slots appended and freed) or
// lowered (free list filtered, resident frames in retired slots
// evicted — dirty ones written back behind the usual write latch).
// Frames that are pinned or mid-write when a shrink runs stay resident
// and drain later: every slot-free path discards retired slots, so the
// pool converges to the new budget without stalling the workload. The
// requested size is floored at 8 frames per shard so a shrink can never
// starve a shard below what a batch scan pins.
func (p *Pool) Resize(n int) int {
	p.resizeMu.Lock()
	defer p.resizeMu.Unlock()
	nshards := len(p.shards)
	if min := 8 * nshards; n < min {
		n = min
	}
	base, rem := n/nshards, n%nshards
	total := 0
	for i, sh := range p.shards {
		c := base
		if i < rem {
			c++
		}
		total += c
		p.resizeShard(sh, c)
	}
	p.capacity.Store(int64(total))
	return total
}

// resizeShard applies a new slot limit to one shard. Growing is cheap:
// extend the clock slice and free the new slots. Shrinking filters the
// free list and actively evicts frames sitting in retired slots; a
// dirty victim is written back outside the shard lock exactly like an
// eviction in get, including the failure path that re-publishes the
// frame so data is never lost to a resize.
func (p *Pool) resizeShard(sh *poolShard, c int) {
	sh.mu.Lock()
	old := sh.limit
	sh.limit = c
	if c >= old {
		for len(sh.clock) < c {
			sh.clock = append(sh.clock, nil)
		}
		for s := old; s < c; s++ {
			sh.free = append(sh.free, s)
		}
		sh.mu.Unlock()
		return
	}
	keep := sh.free[:0]
	for _, s := range sh.free {
		if s < c {
			keep = append(keep, s)
		}
	}
	sh.free = keep
	for slot := c; slot < len(sh.clock); slot++ {
		fr := sh.clock[slot]
		if fr == nil || fr.pins.Load() != 0 {
			continue // pinned frames drain via freeSlotLocked later
		}
		if _, busy := sh.writing[fr.key]; busy {
			continue // flush in flight relies on the frame staying put
		}
		sh.evictFrameLocked(fr, slot)
		if fr.dirty.Load() == 0 {
			sh.evictions.Add(1)
			continue
		}
		wb := &pendingWrite{done: make(chan struct{})}
		sh.writing[fr.key] = wb
		sh.mu.Unlock()
		werr := fr.file.walBarrier(fr.data[:])
		if werr == nil {
			werr = fr.file.writePage(fr.key.page, fr.data[:])
		}
		sh.mu.Lock()
		delete(sh.writing, fr.key)
		if werr != nil {
			// Same rule as get: the frame holds the only up-to-date
			// copy, so re-publish it (still dirty, before wb.done
			// closes) and leave it for a later flush or eviction.
			sh.frames[fr.key] = fr
			sh.clock[slot] = fr
			sh.resident.Add(1)
		} else {
			p.diskWrite.Add(1)
			sh.evictions.Add(1)
		}
		wb.err = werr
		close(wb.done)
	}
	sh.mu.Unlock()
}

// Stats returns a snapshot of the pool counters, summed over shards
// without taking any shard lock.
func (p *Pool) Stats() PoolStats {
	var st PoolStats
	for _, sh := range p.shards {
		st.Hits += sh.hits.Load()
		st.DiskReads += sh.diskReads.Load()
		st.Evictions += sh.evictions.Load()
		st.PinWaits += sh.pinWaits.Load()
		st.Resident += sh.resident.Load()
	}
	st.Misses, st.DiskWrite = p.IOCounts()
	st.Fsyncs = p.fsyncs.Load()
	return st
}

// IOCounts returns the two cumulative counters the monitor's execution
// sensor differences around a statement: page requests that needed a
// disk read, and physical page writes.
func (p *Pool) IOCounts() (misses, diskWrites int64) {
	return p.misses.Load(), p.diskWrite.Load()
}

// Capacity returns the current frame capacity.
func (p *Pool) Capacity() int { return int(p.capacity.Load()) }

// Shards returns the number of shards (observability and tests).
func (p *Pool) Shards() int { return len(p.shards) }

// Resident returns the number of pages currently cached.
func (p *Pool) Resident() int {
	var n int64
	for _, sh := range p.shards {
		n += sh.resident.Load()
	}
	return int(n)
}

// PinnedFrames counts frames currently pinned, across all shards. The
// count is a consistent-enough snapshot for leak assertions: with no
// scan in flight it must be zero — every batch iterator releases its
// pins on exhaustion or Close, including the per-worker iterators of a
// parallel scan that was cancelled mid-flight.
func (p *Pool) PinnedFrames() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		for _, fr := range sh.frames {
			if fr.pins.Load() > 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// get pins the frame for (f, page), reading it from disk on a miss.
// Callers must unpin the frame when done. If the page lies past the
// end of the on-disk file it is served as a zero page (the file grows
// on flush). A frame becomes visible to other getters only after its
// read completed: concurrent getters of a cold page block on the load
// latch and observe the read error if the read failed.
//
// prof, when non-nil, receives the time this call spent waiting —
// page reads, load/write latch waits and victim write-backs as I/O,
// victim WAL barriers as fsync, pinned-full backpressure as pin wait.
// The nil case (every unprofiled statement) adds no clock reads.
func (p *Pool) get(f *File, page uint32, prof *WaitProf) (*frame, error) {
	key := pageKey{file: f.id, page: page}
	sh := p.shards[key.hash()&p.shardMask]
	var waited time.Duration
	for {
		sh.mu.Lock()
		if fr, ok := sh.frames[key]; ok {
			fr.pins.Add(1)
			fr.ref.Store(1)
			sh.mu.Unlock()
			sh.hits.Add(1)
			return fr, nil
		}
		if ld, ok := sh.loading[key]; ok {
			sh.mu.Unlock()
			if prof != nil {
				t0 := time.Now()
				<-ld.ready
				prof.AddIO(time.Since(t0))
			} else {
				<-ld.ready
			}
			if ld.err != nil {
				return nil, ld.err
			}
			continue // the loader published the frame; hit it
		}
		if wb, ok := sh.writing[key]; ok {
			// The latest content is mid-flight to disk; wait for it so
			// the re-read below cannot resurrect stale bytes. The
			// write's outcome belongs to its writer, not this read: on
			// success the retry re-reads the fresh bytes, on failure
			// the writer re-published the frame (still dirty) and the
			// retry hits it in memory.
			sh.mu.Unlock()
			if prof != nil {
				t0 := time.Now()
				<-wb.done
				prof.AddIO(time.Since(t0))
			} else {
				<-wb.done
			}
			continue
		}

		// True miss: reserve a clock slot, evicting if necessary.
		var slot int
		if n := len(sh.free); n > 0 {
			slot = sh.free[n-1]
			sh.free = sh.free[:n-1]
		} else {
			victim, vslot := sh.sweepLocked()
			if victim == nil {
				// Every frame pinned (or write-locked): backpressure.
				sh.mu.Unlock()
				sh.pinWaits.Add(1)
				if waited >= p.pinWaitMax {
					return nil, fmt.Errorf("storage: buffer pool exhausted (%d pages, all pinned; waited %v)", p.Capacity(), waited)
				}
				time.Sleep(p.pinWaitStep)
				waited += p.pinWaitStep
				if prof != nil {
					prof.AddPinWait(p.pinWaitStep)
				}
				continue
			}
			sh.evictFrameLocked(victim, vslot)
			slot = vslot
			if victim.dirty.Load() != 0 {
				// Write the victim back outside the shard lock. It is
				// unreachable (not in frames, pins == 0), so its data is
				// immutable; the pendingWrite entry keeps re-readers of
				// the victim's page away until the write lands.
				wb := &pendingWrite{done: make(chan struct{})}
				sh.writing[victim.key] = wb
				sh.mu.Unlock()
				// WAL-before-data: the victim's image must not reach disk
				// before the log records that produced it are durable.
				var werr error
				if prof != nil {
					t0 := time.Now()
					werr = victim.file.walBarrier(victim.data[:])
					t1 := time.Now()
					prof.AddFsync(t1.Sub(t0))
					if werr == nil {
						werr = victim.file.writePage(victim.key.page, victim.data[:])
						prof.AddIO(time.Since(t1))
					}
				} else {
					werr = victim.file.walBarrier(victim.data[:])
					if werr == nil {
						werr = victim.file.writePage(victim.key.page, victim.data[:])
					}
				}
				sh.mu.Lock()
				delete(sh.writing, victim.key)
				if werr != nil {
					// The frame holds the only up-to-date copy of the
					// victim's page: re-publish it (still dirty) so the
					// data survives and a later flush or eviction
					// retries the write, then surface the failure. The
					// re-insert happens before wb.done closes, so a
					// getter of the victim's page that waited on wb
					// retries and hits the frame in memory.
					sh.frames[victim.key] = victim
					sh.clock[slot] = victim
					sh.resident.Add(1)
					sh.mu.Unlock()
					wb.err = werr
					close(wb.done)
					return nil, fmt.Errorf("storage: write-back of page %d of %s while evicting: %w", victim.key.page, victim.file.path, werr)
				}
				p.diskWrite.Add(1)
				sh.evictions.Add(1)
				sh.freeSlotLocked(slot)
				sh.mu.Unlock()
				close(wb.done)
				continue // re-run from the top: our key may have appeared
			}
			sh.evictions.Add(1)
			if slot >= sh.limit {
				// A shrink retired this slot while its frame lingered;
				// the eviction freed the frame but the slot is gone.
				sh.mu.Unlock()
				continue
			}
		}

		// Load the page outside the lock, behind the load latch.
		ld := &pendingLoad{ready: make(chan struct{})}
		sh.loading[key] = ld
		p.misses.Add(1)
		sh.mu.Unlock()

		fr := &frame{key: key, file: f}
		fr.pins.Store(1)
		fr.ref.Store(1)
		var n int
		var err error
		if prof != nil {
			t0 := time.Now()
			n, err = f.readPage(page, fr.data[:])
			prof.AddIO(time.Since(t0))
		} else {
			n, err = f.readPage(page, fr.data[:])
		}
		if err == nil && f.wal != nil {
			fr.lsn.Store(PageLSN(fr.data[:]))
		}

		sh.mu.Lock()
		delete(sh.loading, key)
		if err != nil {
			sh.freeSlotLocked(slot)
			sh.mu.Unlock()
			ld.err = err
			close(ld.ready)
			return nil, err
		}
		if ld.dropped || slot >= sh.limit {
			// dropFile ran mid-load (hand the frame to the caller but do
			// not cache it), or a shrink retired the slot while the read
			// was in flight.
			sh.freeSlotLocked(slot)
		} else {
			sh.frames[key] = fr
			sh.clock[slot] = fr
			sh.resident.Add(1)
		}
		sh.mu.Unlock()
		if n > 0 {
			sh.diskReads.Add(1)
		}
		close(ld.ready)
		return fr, nil
	}
}

// sweepLocked runs the clock hand over the shard's slots looking for
// an unpinned frame whose reference bit is clear, clearing reference
// bits as it passes (second chance). Frames with a write already in
// flight are skipped: registering a second write for the same page
// could reorder the two writes, and a flush in progress relies on the
// frame staying resident so a failed write can re-mark it dirty.
// Returns nil if every frame is pinned. sh.mu must be held.
func (sh *poolShard) sweepLocked() (*frame, int) {
	n := len(sh.clock)
	for i := 0; i < 2*n; i++ {
		idx := sh.hand
		sh.hand++
		if sh.hand == n {
			sh.hand = 0
		}
		fr := sh.clock[idx]
		if fr == nil || fr.pins.Load() != 0 {
			continue
		}
		if fr.ref.Load() != 0 {
			fr.ref.Store(0) // second chance
			continue
		}
		if _, busy := sh.writing[fr.key]; busy {
			continue
		}
		return fr, idx
	}
	return nil, -1
}

// evictFrameLocked removes fr from the shard's map and clock. The
// caller owns the freed slot and counts the eviction once it is final
// (a failed dirty write-back re-publishes the frame instead). sh.mu
// must be held.
func (sh *poolShard) evictFrameLocked(fr *frame, slot int) {
	delete(sh.frames, fr.key)
	sh.clock[slot] = nil
	sh.resident.Add(-1)
}

// flushFile writes back every dirty frame belonging to f, and waits
// for write-backs of f's pages that were already in flight, so a nil
// return is a real durability barrier: every page that was dirty when
// the flush began is on disk. The dirty set is snapshotted per shard
// in one pass; each frame is then persisted by flushFrame from a
// private copy of the page image.
func (p *Pool) flushFile(f *File) error {
	var (
		dirty        []*frame
		inflight     []*pendingWrite
		inflightKeys []pageKey
	)
	for _, sh := range p.shards {
		sh.mu.Lock()
		for key, fr := range sh.frames {
			if key.file == f.id && fr.dirty.Load() != 0 {
				dirty = append(dirty, fr)
			}
		}
		for key, wb := range sh.writing {
			if key.file == f.id {
				inflight = append(inflight, wb)
				inflightKeys = append(inflightKeys, key)
			}
		}
		sh.mu.Unlock()
	}
	// Writes already in flight (eviction write-backs, an overlapping
	// flush) carry content that was dirty before this flush began; the
	// barrier must include them. A failed write-back re-published its
	// frame still dirty — pick it up for retry below.
	for i, wb := range inflight {
		<-wb.done
		if wb.err == nil {
			continue
		}
		key := inflightKeys[i]
		sh := p.shards[key.hash()&p.shardMask]
		sh.mu.Lock()
		if fr, ok := sh.frames[key]; ok && fr.dirty.Load() != 0 {
			dirty = append(dirty, fr)
		}
		sh.mu.Unlock()
	}
	var buf [PageSize]byte
	for _, fr := range dirty {
		if err := p.flushFrame(f, fr, &buf); err != nil {
			return err
		}
	}
	return nil
}

// flushFrame persists one dirty frame. The page image is copied into
// buf under the shard lock at a moment when the frame is unpinned:
// mutating a page requires a pin and pinning requires the shard lock,
// so the copy is a consistent snapshot and the disk write never reads
// the shared frame — a concurrent session can neither race the write
// nor tear the on-disk page. The pendingWrite entry excludes other
// writers of the same page and (via sweepLocked) keeps the frame
// resident until the write lands, so a failure simply re-marks the
// frame dirty. It is flushFrame, not the caller, that retries when a
// concurrent write of the same page is in flight — skipping would let
// Sync fsync before the page's newest content reached disk.
func (p *Pool) flushFrame(f *File, fr *frame, buf *[PageSize]byte) error {
	sh := p.shards[fr.key.hash()&p.shardMask]
	var waited time.Duration
	for {
		sh.mu.Lock()
		if cur, ok := sh.frames[fr.key]; !ok || cur != fr {
			// Evicted since the snapshot: the evictor's write-back
			// persists the content. Wait for it if it is still in
			// flight; if it failed, the frame was re-published dirty,
			// so retry from the top.
			wb := sh.writing[fr.key]
			sh.mu.Unlock()
			if wb != nil {
				<-wb.done
				if wb.err != nil {
					continue
				}
			}
			return nil
		}
		if wb, busy := sh.writing[fr.key]; busy {
			sh.mu.Unlock()
			<-wb.done
			continue
		}
		if fr.dirty.Load() == 0 {
			sh.mu.Unlock()
			return nil
		}
		if fr.pins.Load() != 0 {
			// A pinned frame may be mid-mutation; copying it now could
			// capture a torn page. Pins are short-lived: wait for a gap.
			sh.mu.Unlock()
			if waited >= flushPinWaitMax {
				return fmt.Errorf("storage: flush page %d of %s: frame continuously pinned for %v", fr.key.page, f.path, waited)
			}
			time.Sleep(flushPinWaitStep)
			waited += flushPinWaitStep
			continue
		}
		fr.dirty.Store(0)
		wb := &pendingWrite{done: make(chan struct{})}
		sh.writing[fr.key] = wb
		copy(buf[:], fr.data[:])
		sh.mu.Unlock()

		// WAL-before-data: hold the page write until the log covering
		// its trailer LSN is durable.
		err := f.walBarrier(buf[:])
		if err == nil {
			err = f.writePage(fr.key.page, buf[:])
		}
		if err == nil {
			p.diskWrite.Add(1)
		}
		sh.mu.Lock()
		delete(sh.writing, fr.key)
		sh.mu.Unlock()
		wb.err = err
		close(wb.done)
		if err != nil {
			fr.dirty.Store(1) // still dirty; retried by the next flush
			return err
		}
		return nil
	}
}

// dropFile discards every cached frame of f without writing it back.
// Used when a file is truncated or deleted. Write-backs of f's pages
// already in flight are drained first, so a failed one cannot
// re-publish a frame after the drop and no write can land on (or
// error against) a descriptor the caller is about to close. Loads in
// flight for f are marked so their frames are handed to their callers
// but not cached.
func (p *Pool) dropFile(f *File) {
	for _, sh := range p.shards {
		sh.mu.Lock()
		for {
			var pending []*pendingWrite
			for key, wb := range sh.writing {
				if key.file == f.id {
					pending = append(pending, wb)
				}
			}
			if pending == nil {
				break
			}
			sh.mu.Unlock()
			for _, wb := range pending {
				<-wb.done
			}
			sh.mu.Lock()
		}
		// The lock is held and no write-back of f is in flight; after
		// the frames are removed none can start, because registering
		// one requires a resident frame of f.
		for slot, fr := range sh.clock {
			if fr != nil && fr.key.file == f.id {
				delete(sh.frames, fr.key)
				sh.clock[slot] = nil
				sh.freeSlotLocked(slot)
				sh.resident.Add(-1)
			}
		}
		for key, ld := range sh.loading {
			if key.file == f.id {
				ld.dropped = true
			}
		}
		sh.mu.Unlock()
	}
}
