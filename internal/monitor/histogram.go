package monitor

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Latency histograms use log-spaced buckets: bucket b counts durations
// in [2^(b-1), 2^b) nanoseconds (bucket 0 counts ≤ 0, which only a
// stopped clock produces). Power-of-two bounds make the bucket index a
// single bits.Len64 — no float math, no search — so recording a sample
// is one shift-class instruction plus one counter increment. 48 buckets
// cover up to 2^47 ns ≈ 39 hours; longer samples clamp into the last
// bucket.

// NumLatencyBuckets is the number of log-spaced histogram buckets.
const NumLatencyBuckets = 48

// latencyBucket maps a duration to its bucket index.
func latencyBucket(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	b := bits.Len64(uint64(d))
	if b >= NumLatencyBuckets {
		return NumLatencyBuckets - 1
	}
	return b
}

// LatencyBucketBounds returns bucket i's half-open range [lo, hi) in
// nanoseconds. Bucket 0 is [0, 1); the last bucket is unbounded above
// but reported with its nominal upper bound.
func LatencyBucketBounds(i int) (lo, hi time.Duration) {
	if i <= 0 {
		return 0, 1
	}
	return 1 << (i - 1), 1 << i
}

// LatencyCounts is a merged histogram snapshot: per-bucket sample
// counts, index as in LatencyBucketBounds.
type LatencyCounts [NumLatencyBuckets]int64

// Total returns the number of recorded samples.
func (c *LatencyCounts) Total() int64 {
	var n int64
	for _, v := range c {
		n += v
	}
	return n
}

// Quantile returns a conservative estimate of the q-quantile
// (0 < q ≤ 1): the upper bound of the first bucket at which the
// cumulative count reaches q of the total. Zero samples yield 0.
func (c *LatencyCounts) Quantile(q float64) time.Duration {
	total := c.Total()
	if total == 0 {
		return 0
	}
	need := int64(q * float64(total))
	if need < 1 {
		need = 1
	}
	var cum int64
	for i, v := range c {
		cum += v
		if cum >= need {
			_, hi := LatencyBucketBounds(i)
			return hi
		}
	}
	_, hi := LatencyBucketBounds(NumLatencyBuckets - 1)
	return hi
}

// latHist is the live, lock-free form: one atomic counter per bucket.
// It is embedded per totals lane and never copied (see totalLane).
type latHist struct {
	buckets [NumLatencyBuckets]atomic.Int64
}

// record adds one sample. Safe under concurrent use without any lock.
func (h *latHist) record(d time.Duration) {
	h.buckets[latencyBucket(d)].Add(1)
}

// addTo accumulates the live counters into a snapshot.
func (h *latHist) addTo(c *LatencyCounts) {
	for i := range h.buckets {
		c[i] += h.buckets[i].Load()
	}
}

// total returns the number of recorded samples.
func (h *latHist) total() int64 {
	var c LatencyCounts
	h.addTo(&c)
	return c.Total()
}

// SnapshotLatency returns the merged global wallclock and optimize-time
// histograms. The counters are lock-free, so this takes no lock and can
// run at any frequency without perturbing the hot path.
func (m *Monitor) SnapshotLatency() (wall, opt LatencyCounts) {
	for i := range m.totals {
		m.totals[i].wallHist.addTo(&wall)
		m.totals[i].optHist.addTo(&opt)
	}
	return wall, opt
}

// LatencySums returns the cumulative wallclock and optimize time across
// all monitored executions (the `_sum` companions of SnapshotLatency,
// in the Prometheus sense).
func (m *Monitor) LatencySums() (wall, opt time.Duration) {
	var w, o int64
	for i := range m.totals {
		w += m.totals[i].wallNanos.Load()
		o += m.totals[i].optNanos.Load()
	}
	return time.Duration(w), time.Duration(o)
}
