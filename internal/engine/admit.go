package engine

import (
	"slices"
	"sync/atomic"
	"time"
)

// Statement admission. A statement may touch only tables no DDL is
// changing, and it proves that without a shared lock. Every session owns
// a slot: entering a statement publishes in it, with one atomic store,
// the tables the statement (inside Begin..Commit: its transaction) reads
// or writes, and then loads the DB's DDL word, which is nil unless a DDL
// is under way. A DDL stores itself into the word first and reads the
// slots second. Go's atomics are sequentially consistent, so of a
// statement and a DDL on the same table at least one sees the other: the
// statement backs out and waits, or the DDL waits for it to end. A cached
// statement publishes its entry's immutable table list — no allocation,
// no mutex, on the way in or out.
//
// The rule against deadlock: while a DDL waits for its tables to drain
// (pending) it parks only sessions that hold nothing — no row lock and no
// table of an open transaction; a session in a transaction goes ahead,
// and the DDL waits for it to end. Once no slot names its tables the DDL
// runs (running) and parks every session that asks for them, but waits
// on no transaction itself: only on the WAL units in flight, which are
// statement-scoped, opened after the statement's row locks and never
// held by a session parked here.

// slot is one session's (or one internal writer's) entry in the DB's
// registry. Only its owner writes it; DDL, vacuum and the MVCC gauges
// read it.
type slot struct {
	tables atomic.Pointer[[]string]
	// The snapshot horizon: xmin is the id floor of the owner's snapshot
	// (0: none) and taken the snapshot's Unix time in nanoseconds (0:
	// unknown, the monitor did not read the clock).
	xmin  atomic.Uint64
	taken atomic.Int64
}

func (db *DB) eachSlot(fn func(*slot)) {
	db.slots.Range(func(sl, _ any) bool {
		fn(sl.(*slot))
		return true
	})
}

// ddlState is where a DDL stands.
type ddlState uint8

const (
	ddlBuilding ddlState = iota // an online index build: keeps other DDL off its table, parks no statement
	ddlPending                  // waiting for its tables to drain: parks sessions that hold nothing
	ddlRunning                  // drained: parks every session that asks for its tables
	ddlDone                     // left the word
)

// ddlEntry is one DDL in the word. Entries are immutable: a change of
// state replaces the entry and closes changed, which wakes the sessions
// parked on the old one.
type ddlEntry struct {
	tables  []string
	state   ddlState
	changed chan struct{}
}

// admit publishes want — the statement's tables and, inside a
// transaction, the transaction's (held, which want contains) — in sl and
// returns once no DDL excludes the owner from them. Time spent parked is
// a lock wait.
func (db *DB) admit(sl *slot, want, held *[]string) {
	for {
		sl.tables.Store(want)
		w := db.ddl.Load()
		if w == nil {
			return
		}
		e := excluding(*w, *want, held)
		if e == nil {
			return
		}
		sl.tables.Store(held)
		db.park(e.changed)
	}
}

// excluding returns the DDL entry that parks a session asking for want
// while its transaction holds held, or nil. A table the transaction
// already holds never parks it: no DDL can run on that table before the
// transaction ends.
func excluding(w []*ddlEntry, want []string, held *[]string) *ddlEntry {
	var hv []string
	if held != nil {
		hv = *held
	}
	for _, e := range w {
		if e.state == ddlBuilding || (e.state == ddlPending && len(hv) > 0) {
			continue
		}
		for _, t := range e.tables {
			if slices.Contains(want, t) && !slices.Contains(hv, t) {
				return e
			}
		}
	}
	return nil
}

// park waits for ch to close, counting the wait as a lock wait.
func (db *DB) park(ch <-chan struct{}) {
	db.ddlWaiting.Add(1)
	t0 := time.Now()
	<-ch
	db.waited(t0)
}

func (db *DB) waited(t0 time.Time) {
	db.ddlWaiting.Add(-1)
	db.locks.AddWait(time.Since(t0))
}

// beginDDL enters a DDL on tables into the word in state st, after any
// DDL already there on one of them has left.
func (db *DB) beginDDL(tables []string, st ddlState) *ddlEntry {
	e := &ddlEntry{tables: tables, state: st, changed: make(chan struct{})}
	for {
		db.ddlMu.Lock()
		var cur []*ddlEntry
		if w := db.ddl.Load(); w != nil {
			cur = *w
		}
		i := slices.IndexFunc(cur, func(o *ddlEntry) bool {
			return slices.ContainsFunc(o.tables, func(t string) bool { return slices.Contains(tables, t) })
		})
		if i < 0 {
			next := append(slices.Clip(cur), e)
			db.ddl.Store(&next)
			db.ddlMu.Unlock()
			return e
		}
		db.ddlMu.Unlock()
		db.park(cur[i].changed)
	}
}

// setDDL replaces e in the word by e in state st — ddlDone removes it —
// and wakes the sessions parked on e.
func (db *DB) setDDL(e *ddlEntry, st ddlState) *ddlEntry {
	n := &ddlEntry{tables: e.tables, state: st, changed: make(chan struct{})}
	db.ddlMu.Lock()
	var next []*ddlEntry
	for _, x := range *db.ddl.Load() {
		if x != e {
			next = append(next, x)
		} else if st != ddlDone {
			next = append(next, n)
		}
	}
	if next == nil {
		db.ddl.Store(nil)
	} else {
		db.ddl.Store(&next)
	}
	db.ddlMu.Unlock()
	close(e.changed)
	return n
}

// runDDL waits until no slot names e's tables and returns e running: from
// then on every session that asks for them parks. The running state is
// published before the slots are read again, so a session that slipped
// in between is seen, and the DDL goes back to waiting.
func (db *DB) runDDL(e *ddlEntry) *ddlEntry {
	if e.state != ddlPending {
		e = db.setDDL(e, ddlPending)
	}
	var t0 time.Time
	for pause := 20 * time.Microsecond; ; pause = min(2*pause, time.Millisecond) {
		if !db.named(e.tables) {
			if e = db.setDDL(e, ddlRunning); !db.named(e.tables) {
				break
			}
			e = db.setDDL(e, ddlPending)
		}
		if t0.IsZero() {
			db.ddlWaiting.Add(1)
			t0 = time.Now()
		}
		time.Sleep(pause)
	}
	if !t0.IsZero() {
		db.waited(t0)
	}
	return e
}

// named reports whether a slot names one of tables.
func (db *DB) named(tables []string) (found bool) {
	db.eachSlot(func(sl *slot) {
		if p := sl.tables.Load(); p != nil {
			found = found || slices.ContainsFunc(*p, func(t string) bool { return slices.Contains(tables, t) })
		}
	})
	return found
}

// vacuumHorizon returns the id floor below which a committed deleter is
// invisible to every active and future snapshot: the published state's
// floor and every slot's. The state is read before the slots; a session
// announces a floor no higher than the state it then loads before
// loading it, so a snapshot this scan misses is of a state no older than
// the one read here.
func (db *DB) vacuumHorizon() uint64 {
	h := db.txns.state.Load().xmin
	db.eachSlot(func(sl *slot) {
		if x := sl.xmin.Load(); x != 0 && x < h {
			h = x
		}
	})
	return h
}

// snapshotGauges counts the slots holding a snapshot and returns the age
// of the oldest one whose time is known.
func (db *DB) snapshotGauges(now time.Time) (active int, oldest time.Duration) {
	db.eachSlot(func(sl *slot) {
		if sl.xmin.Load() == 0 {
			return
		}
		active++
		if ns := sl.taken.Load(); ns != 0 {
			oldest = max(oldest, now.Sub(time.Unix(0, ns)))
		}
	})
	return active, oldest
}
