package monitor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The monitor's hot path is sharded: the statement table, the
// reference ring and the per-object frequency maps are split into a
// power-of-two number of shards keyed by statement hash, and the
// workload ring into shards keyed round-robin by a global execution
// sequence. Each shard has its own mutex, so concurrent sessions only
// contend when their statements hash to the same shard. Global
// invariants — the statement capacity with overwrite-oldest eviction
// across shards, cumulative totals, the §IV-B near-full flush trigger
// — are enforced with atomic counters and a lock-free global FIFO of
// statement insertions, and the per-shard state is merged (ordered by
// sequence number) only at Snapshot/Drain time.

// maxShards caps the default shard count; beyond ~64 ways the locks
// stop being the bottleneck and the fixed per-shard memory dominates.
const maxShards = 64

// defaultShards is the next power of two ≥ GOMAXPROCS, clamped to
// [1, maxShards].
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	p := 1
	for p < n && p < maxShards {
		p <<= 1
	}
	return p
}

// ceilPow2 rounds n up to a power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// largestPow2Dividing returns the largest power of two that divides n
// (1 for odd n). The workload shard count must divide the configured
// capacity so that the union of per-shard rings is exactly the newest
// C entries, as a single ring of capacity C would keep.
func largestPow2Dividing(n int) int {
	return n & -n
}

// stmtShard holds one shard of the statement table, the reference ring
// slice and the frequency maps. All fields are guarded by mu.
type stmtShard struct {
	mu sync.Mutex

	stmts map[uint64]*StatementInfo
	free  []*StatementInfo // reclaimed StatementInfos, reused by inserts

	refCap  int
	refs    []Reference
	refSeqs []uint64
	refPos  int
	refLen  int

	// Object frequencies. setCounts[i] counts this shard's executions of
	// the registered reference set in slot i (refset.go); the per-name
	// maps hold what was counted without a registered set plus the counts
	// of retired sets. A snapshot expands the former into the latter's
	// terms and sums.
	setCounts []int64
	tableFreq map[string]int64
	attrFreq  map[string]int64
	indexFreq map[string]int64

	_ [64]byte // pad against false sharing between neighbouring shards
}

func (sh *stmtShard) init(refCap int) {
	sh.stmts = map[uint64]*StatementInfo{}
	sh.refCap = refCap
	sh.refs = make([]Reference, refCap)
	sh.refSeqs = make([]uint64, refCap)
	sh.tableFreq = map[string]int64{}
	sh.attrFreq = map[string]int64{}
	sh.indexFreq = map[string]int64{}
}

// maxFreeStmts bounds each shard's StatementInfo freelist; hashes are
// uniform, so evictions (which feed a victim shard's freelist) and
// inserts (which drain the inserting shard's) stay balanced and the
// bound is rarely hit.
const maxFreeStmts = 64

// removeLocked evicts one statement and reclaims its StatementInfo.
func (sh *stmtShard) removeLocked(hash uint64) {
	if si, ok := sh.stmts[hash]; ok {
		delete(sh.stmts, hash)
		if len(sh.free) < maxFreeStmts {
			sh.free = append(sh.free, si)
		}
	}
}

// newStmtLocked returns a StatementInfo for an insert, reusing a
// reclaimed one when available so steady-state statement churn does not
// allocate.
func (sh *stmtShard) newStmtLocked() *StatementInfo {
	if n := len(sh.free); n > 0 {
		si := sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		return si
	}
	return new(StatementInfo)
}

// addRefLocked appends one reference, tagged with its global sequence.
func (sh *stmtShard) addRefLocked(r Reference, seq uint64) {
	sh.refs[sh.refPos] = r
	sh.refSeqs[sh.refPos] = seq
	sh.refPos = (sh.refPos + 1) % sh.refCap
	if sh.refLen < sh.refCap {
		sh.refLen++
	}
}

// workShard is one shard of the workload ring. Entries are appended in
// arrival order and tagged with their global execution sequence; the
// snapshot/drain merge sorts by sequence to reconstruct global order.
// The cumulative totals live here too: they are updated under the same
// lock the ring commit already takes, instead of bouncing two global
// atomics on every statement.
type workShard struct {
	mu   sync.Mutex
	ring []WorkloadEntry
	seqs []uint64
	pos  int
	n    int

	// cumulative counters; survive ring wraparound and drains.
	stmtTotal      int64
	monNanosTotal  int64
	wallNanosTotal int64 // Σ statement wallclock, the histogram's _sum
	optNanosTotal  int64 // Σ optimizer time

	// Global latency histograms, sharded like the ring but updated
	// with atomic counters outside the lock (see Handle.Finish). Kept
	// inside workShard so the padding below also separates them.
	wallHist latHist
	optHist  latHist

	_ [64]byte // pad against false sharing
}

// evictFIFO is a lock-free bounded queue of statement insertions in
// global order. Inserters publish (seq, hash) at the tail under their
// shard lock; evictors claim the head slot with a CAS and then delete
// the hash from whichever shard owns it. Because hashes distribute
// uniformly, evictions fan out over all shards instead of serializing
// on the one shard that happens to hold the oldest statement.
//
// A slot is published by storing its absolute sequence number, so a
// reader can tell an old lap from the current one without a separate
// flag. The queue is sized ≥ 2× the statement capacity: live
// statements never exceed the capacity, so the tail can never lap an
// unconsumed head slot (writers double-check and yield, for safety,
// under extreme reservation storms).
type evictFIFO struct {
	mask  uint64
	slots []evictSlot
	head  atomic.Uint64 // last consumed sequence
	tail  atomic.Uint64 // last published sequence (claimed via Add)
}

type evictSlot struct {
	seq  atomic.Uint64
	hash uint64
}

func (q *evictFIFO) init(stmtCap int) {
	n := ceilPow2(2*stmtCap + 256)
	q.slots = make([]evictSlot, n)
	q.mask = uint64(n - 1)
}

// publish appends one insertion and returns its global sequence.
func (q *evictFIFO) publish(hash uint64) uint64 {
	seq := q.tail.Add(1)
	for seq-q.head.Load() > uint64(len(q.slots)) {
		// Only reachable when more goroutines than queue slack are
		// simultaneously inserting; wait for evictors to consume.
		runtime.Gosched()
	}
	slot := &q.slots[seq&q.mask]
	slot.hash = hash
	slot.seq.Store(seq)
	return seq
}

// claimOldest pops the oldest published insertion, returning ok=false
// when none is published (empty, or the head insert is still being
// written).
func (q *evictFIFO) claimOldest() (hash uint64, ok bool) {
	for {
		h := q.head.Load()
		next := h + 1
		slot := &q.slots[next&q.mask]
		if slot.seq.Load() != next {
			return 0, false
		}
		// Read the payload before claiming: until head moves past
		// next, no writer may reuse this slot, so the read is stable.
		hash = slot.hash
		if q.head.CompareAndSwap(h, next) {
			return hash, true
		}
	}
}

// acquireStmtSlot obtains the right to insert one new statement,
// either by reserving unused capacity (CAS on the live counter) or —
// when the table is full — by evicting the globally oldest statement
// and taking over its slot, leaving the counter untouched. In the
// steady state of a statement-churn workload the counter is therefore
// only read, never written, so it stops being a contended cache line.
// The caller must not hold any shard lock (eviction locks the
// victim's shard); evicted reports which kind of slot was obtained,
// so a caller that loses a racing insert can return it correctly.
func (m *Monitor) acquireStmtSlot() (evicted bool) {
	for {
		n := m.liveStmts.Load()
		if n < int64(m.stmtCap) {
			if m.liveStmts.CompareAndSwap(n, n+1) {
				return false
			}
			continue
		}
		if m.evictOldest() {
			return true
		}
		// Table full but nothing published to evict: the capacity is
		// held by in-flight inserts. Let them land, then retry.
		runtime.Gosched()
	}
}

// evictOldest removes the statement with the globally smallest
// insertion sequence. The freed capacity slot is NOT returned to the
// live counter — the caller reuses it for its own insert.
func (m *Monitor) evictOldest() bool {
	hash, ok := m.evict.claimOldest()
	if !ok {
		return false
	}
	sh := &m.shards[hash&m.shardMask]
	sh.mu.Lock()
	// The claimed slot is exactly one liveness interval of this hash:
	// the entry cannot have been evicted by anyone else (slots are
	// consumed once), nor re-inserted (re-insert requires the eviction
	// to have happened), so it is present.
	sh.removeLocked(hash)
	sh.mu.Unlock()
	return true
}

// lockStmtShards acquires every statement shard lock in index order
// (the only multi-lock paths are snapshot-style readers, which all use
// this order, so they cannot deadlock with the single-lock hot path).
func (m *Monitor) lockStmtShards() {
	for i := range m.shards {
		m.shards[i].mu.Lock()
	}
}

func (m *Monitor) unlockStmtShards() {
	for i := range m.shards {
		m.shards[i].mu.Unlock()
	}
}

func (m *Monitor) lockWorkShards() {
	for i := range m.workShards {
		m.workShards[i].mu.Lock()
	}
}

func (m *Monitor) unlockWorkShards() {
	for i := range m.workShards {
		m.workShards[i].mu.Unlock()
	}
}
