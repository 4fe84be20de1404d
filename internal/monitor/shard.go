package monitor

import "sync/atomic"

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
