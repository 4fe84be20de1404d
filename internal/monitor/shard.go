package monitor

import (
	"sync"
	"sync/atomic"
)

// ceilPow2 rounds n up to a power of two (1 for n < 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// totalLane is one stripe of the monitor's cumulative totals and global
// latency histograms. A statement adds to the lane of its session (the
// slow path to lane 0), so the hot path shares no cache line between
// sessions on different lanes; readers sum the lanes without a lock.
// There is no statement counter: every execution lands in exactly one
// wall bucket.
type totalLane struct {
	wallHist  latHist
	optHist   latHist
	wallNanos atomic.Int64 // Σ statement wallclock, the histogram's _sum
	optNanos  atomic.Int64 // Σ optimizer time
	monNanos  atomic.Int64 // Σ time inside sensors
	_         [40]byte     // pad to a multiple of the cache line
}

// workRing is the bounded ring of workload entries awaiting a drain: raw
// rows of the executions no Shape sums up — the slow path and profiled
// executions — and the undrained sums of retired Shapes. A full ring
// overwrites its oldest entry and counts the executions lost with it.
type workRing struct {
	mu   sync.Mutex
	ring []WorkloadEntry
	pos  int // next write
	n    int // buffered entries

	depth   atomic.Int64 // n, readable without the lock
	dropped atomic.Int64 // executions overwritten before a drain
}

// push appends e, overwriting the oldest entry when the ring is full.
func (r *workRing) push(e WorkloadEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n < len(r.ring) {
		r.n++
		r.depth.Store(int64(r.n))
	} else {
		r.dropped.Add(r.ring[r.pos].Executions)
	}
	r.ring[r.pos] = e
	r.pos = (r.pos + 1) % len(r.ring)
}

// entries copies the buffered entries, oldest first, and clears the ring
// when take is set.
func (r *workRing) entries(take bool) []WorkloadEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkloadEntry, 0, r.n)
	for i := r.n; i > 0; i-- {
		out = append(out, r.ring[(r.pos-i+len(r.ring))%len(r.ring)])
	}
	if take {
		r.pos, r.n = 0, 0
		r.depth.Store(0)
	}
	return out
}
