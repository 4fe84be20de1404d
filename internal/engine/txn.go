package engine

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// MVCC transaction manager. Transaction ids are allocated monotonically
// starting at firstTxnID; id frozenTxnID marks bulk-loaded and rebuilt
// rows as committed-forever. A transaction is in exactly one of three
// states: inflight (open), committed (absent from both sets), or
// aborted. Aborted ids are kept in a copy-on-write set — the engine
// never undoes an aborted transaction's versions physically; they stay
// on disk, invisible to every snapshot, until vacuum reclaims them and
// retires the id.
const (
	frozenTxnID = 1
	firstTxnID  = 2
)

// txnView is the published transaction state: what a snapshot needs to
// tell committed from open ids. It is immutable; begin, commit and abort
// publish a new one under txnManager.mu, and a snapshot is a load of the
// current one.
type txnView struct {
	next     uint64   // ids >= next started after the state was published
	inflight []uint64 // open transaction ids, ascending
	xmin     uint64   // min(next, inflight): every id below it has finished
}

// open reports whether x was in flight in this state.
func (st *txnView) open(x uint64) bool {
	if x < st.xmin {
		return false
	}
	_, ok := slices.BinarySearch(st.inflight, x)
	return ok
}

type txnManager struct {
	mu sync.Mutex // serializes the writers of state and aborted
	// locked counts the times mu was taken: a statement that opens no
	// transaction must leave it unchanged.
	locked atomic.Int64
	state  atomic.Pointer[txnView]
	// aborted is copy-on-write: snapshots capture the pointer at
	// creation, making visibility checks lock-free. Ids are only added
	// while a transaction aborts and removed only by vacuum once no
	// on-disk record references them. An abort stores it before the
	// state that drops the id from inflight, and readers load the state
	// first, so an id a reader finds finished is in the set it loads next
	// if it aborted.
	aborted atomic.Pointer[map[uint64]bool]

	begins    atomic.Int64
	commits   atomic.Int64
	aborts    atomic.Int64
	conflicts atomic.Int64
	retired   atomic.Int64
}

func newTxnManager() *txnManager {
	m := &txnManager{}
	m.state.Store(&txnView{next: firstTxnID, xmin: firstTxnID})
	empty := map[uint64]bool{}
	m.aborted.Store(&empty)
	return m
}

func (m *txnManager) lock() {
	m.mu.Lock()
	m.locked.Add(1)
}

// publishLocked stores the state with next and inflight; the caller
// holds mu and hands over inflight.
func (m *txnManager) publishLocked(next uint64, inflight []uint64) {
	xmin := next
	if len(inflight) > 0 {
		xmin = inflight[0]
	}
	m.state.Store(&txnView{next: next, inflight: inflight, xmin: xmin})
}

// finishLocked publishes the state without the finished transaction id.
func (m *txnManager) finishLocked(id uint64) {
	st := m.state.Load()
	inflight := st.inflight
	if i, ok := slices.BinarySearch(inflight, id); ok {
		inflight = slices.Concat(inflight[:i], inflight[i+1:])
	}
	m.publishLocked(st.next, inflight)
}

// restore seeds the manager from the persisted catalog state plus what
// recovery derived from the WAL.
func (m *txnManager) restore(ts catalog.TxnStatus, extraAborted map[uint64]bool, maxSeen uint64) {
	m.lock()
	defer m.mu.Unlock()
	next := max(m.state.Load().next, ts.NextTxnID, maxSeen+1)
	ab := map[uint64]bool{}
	for _, id := range ts.Aborted {
		ab[id] = true
	}
	for id := range extraAborted {
		ab[id] = true
	}
	delete(ab, 0)
	delete(ab, frozenTxnID)
	m.aborted.Store(&ab)
	m.publishLocked(next, nil)
}

// begin allocates a transaction id and publishes it as inflight.
func (m *txnManager) begin() uint64 {
	m.lock()
	st := m.state.Load()
	id := st.next
	m.publishLocked(id+1, append(slices.Clip(st.inflight), id))
	m.mu.Unlock()
	m.begins.Add(1)
	return id
}

// commit marks the transaction committed (simply: no longer inflight).
// The caller has already made the WAL commit record durable.
func (m *txnManager) commit(id uint64) {
	m.lock()
	m.finishLocked(id)
	m.mu.Unlock()
	m.commits.Add(1)
}

// abort marks the transaction aborted: added to the copy-on-write
// aborted set, then removed from inflight. Its versions stay on disk but
// no snapshot — current or future — will see them. Snapshots captured
// before the abort hold the id in their inflight set (or past their
// horizon), so their older aborted-map reference stays correct.
func (m *txnManager) abort(id uint64) {
	if id == 0 {
		return
	}
	m.lock()
	ab := maps.Clone(*m.aborted.Load())
	ab[id] = true
	m.aborted.Store(&ab)
	m.finishLocked(id)
	m.mu.Unlock()
	m.aborts.Add(1)
}

// retire drops aborted ids that vacuum proved unreferenced on disk.
func (m *txnManager) retire(ids []uint64) {
	if len(ids) == 0 {
		return
	}
	m.lock()
	ab := maps.Clone(*m.aborted.Load())
	for _, id := range ids {
		delete(ab, id)
	}
	m.aborted.Store(&ab)
	m.mu.Unlock()
	m.retired.Add(int64(len(ids)))
}

// snapshot is a point-in-time visibility cut: transaction ids below the
// state's next and in neither its inflight set nor the aborted set are
// committed; everything else (besides self) is invisible.
type snapshot struct {
	self    uint64 // owning txn id; 0 for read-only statements
	st      *txnView
	aborted *map[uint64]bool
}

// capture points sn at the current state for the transaction self (0
// for pure readers): two atomic loads, no lock, no allocation.
func (m *txnManager) capture(sn *snapshot, self uint64) {
	sn.self = self
	sn.st = m.state.Load()
	sn.aborted = m.aborted.Load()
}

// setSelf attaches the lazily-allocated transaction id to a snapshot
// taken while the transaction was still read-only. Safe because the id
// was allocated after the snapshot's horizon — no other session's
// versions can carry it.
func (sn *snapshot) setSelf(id uint64) { sn.self = id }

// sees reports whether the snapshot treats transaction x as committed.
func (sn *snapshot) sees(x uint64) bool {
	if x == sn.self && x != 0 {
		return true
	}
	if x >= sn.st.next || sn.st.open(x) {
		return false
	}
	return !(*sn.aborted)[x]
}

// visible reports whether the record version carrying header h exists
// for this snapshot: its creator is seen committed (or is self) and its
// deleter, if any, is not.
func (sn *snapshot) visible(h storage.VersionHeader) bool {
	if !sn.sees(h.Xmin) {
		return false
	}
	return h.Xmax == 0 || !sn.sees(h.Xmax)
}

// realitySnapshot is a snapshot of current committed reality (self = 0,
// held by no slot): what a brand-new transaction would see. Uniqueness
// checks and DDL rebuilds use it.
func (m *txnManager) realitySnapshot() *snapshot {
	return &snapshot{st: m.state.Load(), aborted: m.aborted.Load()}
}

// status snapshots the persistable transaction state for checkpoints.
func (m *txnManager) status() catalog.TxnStatus {
	st := m.state.Load()
	ts := catalog.TxnStatus{NextTxnID: st.next, Inflight: slices.Clone(st.inflight)}
	for id := range *m.aborted.Load() {
		ts.Aborted = append(ts.Aborted, id)
	}
	slices.Sort(ts.Aborted)
	return ts
}

// txnState is the current (not snapshot-relative) state of a
// transaction id: write paths consult it under the table's statement
// write gate, where conflicting writers are serialized.
type txnState int

const (
	txnCommitted txnState = iota
	txnInflight
	txnAborted
)

// stateOf classifies a transaction id against current reality.
func (m *txnManager) stateOf(x uint64) txnState {
	if x == 0 || x == frozenTxnID {
		return txnCommitted
	}
	if m.state.Load().open(x) {
		return txnInflight
	}
	if (*m.aborted.Load())[x] {
		return txnAborted
	}
	return txnCommitted
}
