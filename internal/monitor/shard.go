package monitor

import (
	"runtime"
	"sync"
)

// The workload ring is sharded round-robin by a global execution
// sequence. Each shard has its own mutex, so concurrent sessions only
// contend when their commits land on the same shard. Global invariants
// — cumulative totals, the §IV-B near-full flush trigger — are enforced
// with atomic counters, and the per-shard state is merged (ordered by
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
