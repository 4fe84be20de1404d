// Package stage names the stages of a statement's path and attributes
// a sampled statement's wallclock to them with one clock. The clock is
// owned by the session running the statement and is never reachable
// from another goroutine; the layers it passes through (engine, buffer
// pool, B-Tree, heap) switch it as control crosses their boundaries.
//
// Attribution is exclusive: at any instant the clock charges exactly
// one stage, so for a statement clocked from its start to the
// monitor's stop the stages sum to its wallclock exactly.
package stage

import "time"

// Stage is one step of a statement's path.
type Stage uint8

// The stages, in statement order. A nested layer switches to its own
// stage and back to the one it interrupted, so time inside the buffer
// pool is Pool (or Load, PinWait) whichever layer asked for the page.
const (
	Parse    Stage = iota // lex, statement-cache lookup, and the parser on a miss
	Bind                  // a cache hit's literals bound into the parameter vector
	Plan                  // optimizer and compiler (cache miss only)
	Admit                 // admission to the statement's tables, DDL parking included
	Snapshot              // the visibility snapshot
	Exec                  // executor self time: everything the stages below do not cover
	Pool                  // buffer-pool gets that find their page
	Load                  // page reads, waits on another get's read or write-back, victim write-backs
	PinWait               // backpressure on a fully pinned pool shard
	BTree                 // B-Tree descent and iteration, index maintenance
	Heap                  // heap record fetch, visibility and decode; heap writes
	LockWait              // row locks and the table's statement write gate
	WAL                   // opening and finishing the statement's WAL unit
	Durable               // commit (the log made durable), victim WAL barriers, DDL checkpoint
	Sensor                // the monitor's stop sensor
	Result                // copying result rows out of the pipeline
	N                     // number of stages
)

var names = [N]string{"parse", "bind", "plan", "admit", "snapshot", "exec", "pool", "load",
	"pinwait", "btree", "heap", "lockwait", "wal", "durable", "sensor", "result"}

// String returns the stage's name, as its ima_stages column and its
// /metrics label spell it.
func (s Stage) String() string { return names[s] }

// Clock charges elapsed time to the current stage. Switch and SwitchAt
// on a nil *Clock do nothing but test it, so code on the statement path
// calls them unconditionally and an unsampled statement reads no clock.
// Readings are monotonic offsets from the start, which time.Since takes
// without reading the wall clock.
type Clock struct {
	cur   Stage
	start time.Time
	last  int64 // offset of the last switch from start, nanoseconds
	// Ns is the time charged to each stage so far, in nanoseconds.
	Ns [N]int64
}

// Start resets the clock to charge Parse from t, a monotonic reading, on.
func (c *Clock) Start(t time.Time) { *c = Clock{start: t} }

// Switch charges the time since the last switch to the current stage,
// makes to current and returns the stage it interrupted, which the
// caller switches back to when it is done.
func (c *Clock) Switch(to Stage) (from Stage) {
	if c == nil {
		return to
	}
	return c.switchNow(to)
}

func (c *Clock) switchNow(to Stage) Stage { return c.at(int64(time.Since(c.start)), to) }

// SwitchAt is Switch at a clock reading t the caller already took.
func (c *Clock) SwitchAt(t time.Time, to Stage) (from Stage) {
	if c == nil {
		return to
	}
	return c.at(int64(t.Sub(c.start)), to)
}

func (c *Clock) at(now int64, to Stage) (from Stage) {
	c.Ns[c.cur] += now - c.last
	from, c.cur, c.last = c.cur, to, now
	return from
}
