// Package lock implements a lock manager for named resources with
// shared, intention-exclusive and exclusive modes, FIFO wait queues and
// wait-for-graph deadlock detection. The engine keys both table locks
// and MVCC row locks through it (row resources embed the TID in the
// name, so the same queues and deadlock detector serve both). Its
// counters (locks in use, lock waits, deadlocks) feed the
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

// Mode is a lock mode.
type Mode int

// Lock modes. Only Exclusive conflicts: S-S, S-IX and IX-IX are all
// compatible. Intent marks a table as having row-level writers so DDL
// (which takes Exclusive) waits them out, without writers blocking
// readers. The ordering matters: holding a stronger mode satisfies
// requests for weaker ones, and Intent excludes everything Shared does
// (namely Exclusive), so Intent ≥ Shared is sound.
const (
	Shared Mode = iota
	Intent
	Exclusive
)

// String returns "S", "IX" or "X".
func (m Mode) String() string {
	switch m {
	case Exclusive:
		return "X"
	case Intent:
		return "IX"
	}
	return "S"
}

// ErrDeadlock is returned to the session chosen as the deadlock victim.
var ErrDeadlock = errors.New("lock: deadlock detected, request aborted")

type waiter struct {
	session  int64
	mode     Mode
	resource string
	upgrade  bool // already a holder (and on its held list) at a weaker mode
	ready    chan error
}

type lockState struct {
	holders map[int64]Mode
	queue   []*waiter
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

// Manager is a lock manager for named resources (tables). It is safe
// for concurrent use.
type Manager struct {
	mu       sync.Mutex
	locks    map[string]*lockState
	waitsFor map[int64]string // session -> resource it is queued on
	// held lists, per session, the resources it holds: ReleaseAll walks
	// its own list, never the lock table, so the end of a statement costs
	// what that statement locked however many row locks other sessions
	// keep. visited counts the resources ReleaseAll has looked at.
	held    map[int64]*[]string
	visited int64
	// Emptied lock states and held lists are recycled: an uncontended
	// table lock taken and dropped by every statement allocates nothing.
	freeStates []*lockState
	freeHeld   []*[]string

	grants    atomic.Int64
	waits     atomic.Int64
	waitNanos atomic.Int64 // cumulative time sessions spent parked
	deadlocks atomic.Int64
}

// NewManager creates an empty lock manager.
func NewManager() *Manager {
	return &Manager{
		locks:    map[string]*lockState{},
		waitsFor: map[int64]string{},
		held:     map[int64]*[]string{},
	}
}

// maxFree bounds each recycling list; beyond it emptied objects go to
// the garbage collector as before.
const maxFree = 1024

// maxFreeHeldCap keeps a bulk writer's list of row locks out of the
// recycling list: only statement-sized lists are worth keeping.
const maxFreeHeldCap = 64

// stateLocked returns the lock state of resource, creating (or
// recycling) one when nobody holds or waits on it.
func (m *Manager) stateLocked(resource string) *lockState {
	ls := m.locks[resource]
	if ls == nil {
		if n := len(m.freeStates); n > 0 {
			ls, m.freeStates = m.freeStates[n-1], m.freeStates[:n-1]
		} else {
			ls = &lockState{holders: map[int64]Mode{}}
		}
		m.locks[resource] = ls
	}
	return ls
}

// grantLocked records session as a holder of resource. upgrade marks a
// session that already holds it (and is already on its held list).
func (m *Manager) grantLocked(ls *lockState, session int64, resource string, mode Mode, upgrade bool) {
	ls.holders[session] = mode
	m.grants.Add(1)
	if upgrade {
		return
	}
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

// Acquire takes the named lock in the given mode for session, blocking
// until granted. It returns ErrDeadlock if granting would close a cycle
// in the wait-for graph (the requester is the victim). Re-acquiring a
// lock the session already holds at the same or stronger mode is a
// no-op; a sole Shared holder upgrades to Exclusive in place.
func (m *Manager) Acquire(session int64, resource string, mode Mode) error {
	m.mu.Lock()
	ls := m.stateLocked(resource)
	upgrade := false
	if held, ok := ls.holders[session]; ok {
		if held >= mode {
			m.mu.Unlock()
			return nil
		}
		// Upgrading holders skip the FIFO queue check: a holder parked
		// behind a queued Exclusive waiter could never be granted (the
		// waiter is blocked on the very lock the holder keeps), and the
		// cycle runs through the queue where the DFS cannot see it.
		// Holder-holder upgrade cycles are still caught below.
		upgrade = true
	}
	if m.grantableLocked(ls, session, mode, upgrade) {
		m.grantLocked(ls, session, resource, mode, upgrade)
		m.mu.Unlock()
		return nil
	}
	// Must wait: first check for a deadlock cycle.
	if m.wouldDeadlockLocked(session, resource) {
		m.deadlocks.Add(1)
		m.mu.Unlock()
		return fmt.Errorf("%w (session %d on %s %s)", ErrDeadlock, session, resource, mode)
	}
	w := &waiter{session: session, mode: mode, resource: resource, upgrade: upgrade, ready: make(chan error, 1)}
	ls.queue = append(ls.queue, w)
	m.waitsFor[session] = resource
	m.waits.Add(1)
	m.mu.Unlock()

	t0 := time.Now()
	err := <-w.ready
	m.waitNanos.Add(int64(time.Since(t0)))
	return err
}

// grantableLocked reports whether the request is compatible with the
// current holders and (unless upgrading) does not jump an incompatible
// FIFO queue.
func (m *Manager) grantableLocked(ls *lockState, session int64, mode Mode, upgrade bool) bool {
	for holder, held := range ls.holders {
		if holder == session {
			continue
		}
		if mode == Exclusive || held == Exclusive {
			return false
		}
	}
	if upgrade {
		return true
	}
	// Do not starve queued writers: a new compatible request waits
	// behind a queued exclusive one.
	for _, w := range ls.queue {
		if mode == Exclusive || w.mode == Exclusive {
			return false
		}
	}
	return true
}

// wouldDeadlockLocked runs a DFS over the wait-for graph assuming the
// session starts waiting on resource.
func (m *Manager) wouldDeadlockLocked(session int64, resource string) bool {
	// blockers(s) = holders of the resource s waits on, minus s itself.
	visited := map[int64]bool{}
	var dfs func(s int64) bool
	dfs = func(s int64) bool {
		if s == session {
			return true
		}
		if visited[s] {
			return false
		}
		visited[s] = true
		res, waiting := m.waitsFor[s]
		if !waiting {
			return false
		}
		ls := m.locks[res]
		if ls == nil {
			return false
		}
		for holder := range ls.holders {
			if holder != s && dfs(holder) {
				return true
			}
		}
		return false
	}
	ls := m.locks[resource]
	if ls == nil {
		return false
	}
	for holder := range ls.holders {
		if holder != session && dfs(holder) {
			return true
		}
	}
	return false
}

// Release drops session's lock on resource and grants any now-eligible
// waiters in FIFO order.
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
	}
	m.releaseLocked(session, resource)
}

// ReleaseAll drops every lock the session holds, in sorted resource
// order, granting now-eligible waiters as it goes. It visits only the
// session's own held list.
func (m *Manager) ReleaseAll(session int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	hl := m.held[session]
	if hl == nil {
		return
	}
	delete(m.held, session)
	if len(*hl) > 1 {
		slices.Sort(*hl)
	}
	for _, res := range *hl {
		m.visited++
		m.releaseLocked(session, res)
	}
	if len(m.freeHeld) < maxFree && cap(*hl) <= maxFreeHeldCap {
		clear(*hl) // drop the resource strings
		*hl = (*hl)[:0]
		m.freeHeld = append(m.freeHeld, hl)
	}
}

func (m *Manager) releaseLocked(session int64, resource string) {
	ls := m.locks[resource]
	if ls == nil {
		return
	}
	delete(ls.holders, session)
	// Grant from the front of the queue while compatible.
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		compatible := true
		for holder, held := range ls.holders {
			if holder == w.session {
				continue
			}
			if w.mode == Exclusive || held == Exclusive {
				compatible = false
				break
			}
		}
		if !compatible {
			break
		}
		ls.queue[0] = nil
		ls.queue = ls.queue[1:]
		delete(m.waitsFor, w.session)
		m.grantLocked(ls, w.session, w.resource, w.mode, w.upgrade)
		w.ready <- nil
	}
	m.dropIfIdleLocked(ls, resource)
}

// dropIfIdleLocked removes a lock state nobody holds or waits on from
// the table and keeps it for the next resource that needs one.
func (m *Manager) dropIfIdleLocked(ls *lockState, resource string) {
	if len(ls.holders) != 0 || len(ls.queue) != 0 {
		return
	}
	delete(m.locks, resource)
	if len(m.freeStates) < maxFree {
		ls.queue = nil
		m.freeStates = append(m.freeStates, ls)
	}
}

// Stats returns a snapshot of the lock counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	held, waiting := 0, 0
	for _, ls := range m.locks {
		held += len(ls.holders)
		waiting += len(ls.queue)
	}
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

// Holding reports whether the session holds the resource at mode or
// stronger.
func (m *Manager) Holding(session int64, resource string, mode Mode) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := m.locks[resource]
	if ls == nil {
		return false
	}
	held, ok := ls.holders[session]
	return ok && held >= mode
}
