package storage

import (
	"sync/atomic"
	"time"
)

// WaitProf accumulates one statement's storage-level wait time, split
// by cause. The engine attaches a profiler only to statements the
// monitor has phase-2 flagged, so the unprofiled path pays nothing but
// nil checks. Counters are atomics: a statement's page gets all run on
// its session goroutine, but the profiler also rides WAL transactions,
// and atomics keep every accumulation unordered-safe for the few wait
// events (microseconds and up) being measured.
type WaitProf struct {
	ioNs    atomic.Int64 // page loads, write-backs, load/write latch waits
	fsyncNs atomic.Int64 // WAL durability waits (group commit, barriers)
	pinNs   atomic.Int64 // backpressure on a fully pinned pool shard
}

// AddIO records d of page-I/O wait.
func (p *WaitProf) AddIO(d time.Duration) { p.ioNs.Add(int64(d)) }

// AddFsync records d of WAL-durability wait.
func (p *WaitProf) AddFsync(d time.Duration) { p.fsyncNs.Add(int64(d)) }

// AddPinWait records d of pinned-full-shard backpressure.
func (p *WaitProf) AddPinWait(d time.Duration) { p.pinNs.Add(int64(d)) }

// Totals returns the accumulated nanoseconds per bucket.
func (p *WaitProf) Totals() (ioNs, fsyncNs, pinNs int64) {
	return p.ioNs.Load(), p.fsyncNs.Load(), p.pinNs.Load()
}

// Reset zeroes the counters so pooled profilers can be reused.
func (p *WaitProf) Reset() {
	p.ioNs.Store(0)
	p.fsyncNs.Store(0)
	p.pinNs.Store(0)
}
