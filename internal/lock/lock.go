// Package lock implements an exclusive lock manager for named resources
// with FIFO wait queues and wait-for-graph deadlock detection. The engine
// keys MVCC row locks and the per-table statement write gates through it
// (row resources embed the TID in the name, so the same queues and
// deadlock detector serve both); statements are admitted to their tables
// without it. Its counters (locks in use, lock waits, deadlocks) feed the
// system-statistics sensor behind the paper's locks diagram (Figure 8).
package lock

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ErrDeadlock is returned to the session chosen as the deadlock victim.
var ErrDeadlock = errors.New("lock: deadlock detected, request aborted")

type waiter struct {
	session int64
	ready   chan error
}

// lockState is a held resource: its one holder and the requests queued
// behind it, granted in arrival order.
type lockState struct {
	holder int64
	queue  []*waiter
}

// Stats is a snapshot of lock-manager counters. Grants, Waits and
// Deadlocks are cumulative; Held and Waiting are instantaneous.
type Stats struct {
	Held      int
	Waiting   int
	Grants    int64
	Waits     int64
	WaitNanos int64
	Deadlocks int64
}

// Manager is a lock manager for named resources. It is safe for
// concurrent use.
type Manager struct {
	mu       sync.Mutex
	locks    map[string]lockState
	waitsFor map[int64]string // session -> resource it is queued on
	// held lists, per session, the resources it holds: ReleaseAll walks
	// its own list, never the lock table, so the end of a statement costs
	// what that statement locked however many row locks other sessions
	// keep. visited counts the resources ReleaseAll has looked at.
	held    map[int64]*[]string
	visited int64
	// Emptied held lists are recycled: a write gate taken and dropped by
	// every write statement allocates nothing.
	freeHeld []*[]string

	grants    atomic.Int64
	waits     atomic.Int64
	waitNanos atomic.Int64 // cumulative time sessions spent parked
	deadlocks atomic.Int64
}

// NewManager creates an empty lock manager.
func NewManager() *Manager {
	return &Manager{
		locks:    map[string]lockState{},
		waitsFor: map[int64]string{},
		held:     map[int64]*[]string{},
	}
}

// maxFree bounds the recycling list; maxFreeHeldCap keeps a bulk
// writer's list of row locks out of it: only statement-sized lists are
// worth keeping.
const maxFree, maxFreeHeldCap = 1024, 64

// grantLocked makes session the holder of resource.
func (m *Manager) grantLocked(session int64, resource string, queue []*waiter) {
	m.locks[resource] = lockState{holder: session, queue: queue}
	m.grants.Add(1)
	hl := m.held[session]
	if hl == nil {
		if n := len(m.freeHeld); n > 0 {
			hl, m.freeHeld = m.freeHeld[n-1], m.freeHeld[:n-1]
		} else {
			hl = new([]string)
		}
		m.held[session] = hl
	}
	*hl = append(*hl, resource)
}

// Acquire takes the named lock for session, blocking until granted. It
// returns ErrDeadlock if waiting would close a cycle in the wait-for
// graph (the requester is the victim). Re-acquiring a lock the session
// holds is a no-op.
func (m *Manager) Acquire(session int64, resource string) error {
	m.mu.Lock()
	ls, taken := m.locks[resource]
	if !taken {
		m.grantLocked(session, resource, nil)
		m.mu.Unlock()
		return nil
	}
	if ls.holder == session {
		m.mu.Unlock()
		return nil
	}
	if m.wouldDeadlockLocked(session, ls.holder) {
		m.deadlocks.Add(1)
		m.mu.Unlock()
		return fmt.Errorf("%w (session %d on %s)", ErrDeadlock, session, resource)
	}
	w := &waiter{session: session, ready: make(chan error, 1)}
	ls.queue = append(ls.queue, w)
	m.locks[resource] = ls
	m.waitsFor[session] = resource
	m.waits.Add(1)
	m.mu.Unlock()

	t0 := time.Now()
	err := <-w.ready
	m.waitNanos.Add(int64(time.Since(t0)))
	return err
}

// wouldDeadlockLocked walks the wait-for chain from holder: every session
// waits on at most one resource and every resource has one holder, so
// the graph is a set of chains and session closes a cycle exactly when
// the chain leads back to it.
func (m *Manager) wouldDeadlockLocked(session, holder int64) bool {
	for range len(m.waitsFor) + 1 {
		if holder == session {
			return true
		}
		res, waiting := m.waitsFor[holder]
		if !waiting {
			return false
		}
		holder = m.locks[res].holder
	}
	return false
}

// AddWait counts a wait for something the engine excludes sessions with
// outside the manager (a table under DDL) as a lock wait.
func (m *Manager) AddWait(d time.Duration) {
	m.waits.Add(1)
	m.waitNanos.Add(int64(d))
}

// Release drops session's lock on resource and grants it to the next
// waiter in FIFO order. A session left holding nothing needs no
// ReleaseAll.
func (m *Manager) Release(session int64, resource string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if hl := m.held[session]; hl != nil {
		// Newest first: what is released one by one (a statement's write
		// gate) was taken after the row locks the transaction keeps.
		for i := len(*hl) - 1; i >= 0; i-- {
			if (*hl)[i] == resource {
				*hl = slices.Delete(*hl, i, i+1)
				break
			}
		}
		if len(*hl) == 0 {
			m.dropHeldLocked(session, hl)
		}
	}
	m.releaseLocked(session, resource)
}

// ReleaseAll drops every lock the session holds, in sorted resource
// order, granting waiters as it goes. It visits only the session's own
// held list.
func (m *Manager) ReleaseAll(session int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	hl := m.held[session]
	if hl == nil {
		return
	}
	if len(*hl) > 1 {
		slices.Sort(*hl)
	}
	for _, res := range *hl {
		m.visited++
		m.releaseLocked(session, res)
	}
	m.dropHeldLocked(session, hl)
}

// dropHeldLocked forgets session's held list, keeping it for reuse.
func (m *Manager) dropHeldLocked(session int64, hl *[]string) {
	delete(m.held, session)
	if len(m.freeHeld) < maxFree && cap(*hl) <= maxFreeHeldCap {
		clear(*hl) // drop the resource strings
		*hl = (*hl)[:0]
		m.freeHeld = append(m.freeHeld, hl)
	}
}

func (m *Manager) releaseLocked(session int64, resource string) {
	ls, taken := m.locks[resource]
	if !taken || ls.holder != session {
		return
	}
	if len(ls.queue) == 0 {
		delete(m.locks, resource)
		return
	}
	w := ls.queue[0]
	ls.queue[0] = nil
	delete(m.waitsFor, w.session)
	m.grantLocked(w.session, resource, ls.queue[1:])
	w.ready <- nil
}

// Stats returns a snapshot of the lock counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	held, waiting := len(m.locks), len(m.waitsFor)
	m.mu.Unlock()
	return Stats{
		Held:      held,
		Waiting:   waiting,
		Grants:    m.grants.Load(),
		Waits:     m.waits.Load(),
		WaitNanos: m.waitNanos.Load(),
		Deadlocks: m.deadlocks.Load(),
	}
}
