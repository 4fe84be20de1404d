// Two-phase adaptive monitoring: phase 1 is the always-on lock-free
// statement path (monitor.go); phase 2 is deep wait-state attribution,
// enabled per statement shape by *flagging* it. The flag set is a bounded,
// copy-on-write map keyed by statement digest: readers (the statement
// hot path) load one atomic pointer and do a map lookup, writers
// (the Flagger policy, manual overrides, TTL expiry) copy and swap
// under a mutex. A single atomic counter — flaggedCount — gates the
// whole machinery: with zero flagged statements the hot path pays one
// extra atomic load and nothing else, keeping the phase-1 record path
// allocation-free and inside its PR 1 latency envelope.
//
// The design follows the Tigris two-phase scheme (PAPERS.md): cheap
// always-on sensors select the few statements worth deep
// instrumentation, so monitoring overhead stays flat as statement
// volume grows.
package monitor

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sqlparser"
)

// Flag reasons recorded in ima_flags.
const (
	FlagReasonManual = "manual"
	FlagReasonP95    = "p95-threshold"
	FlagReasonTrend  = "trend"
)

// DefaultMaxFlagged bounds the phase-2 flag set: deep instrumentation
// is only ever active for a handful of statements at a time.
const DefaultMaxFlagged = 16

// flagEntry is the phase-2 accumulator for one flagged statement. The
// wait counters are atomics: concurrent sessions executing the same
// flagged statement commit their breakdowns without a lock.
type flagEntry struct {
	hash   uint64
	text   string
	reason string
	manual bool
	since  time.Time
	expiry atomic.Int64 // unix nanos; 0 = never (manual flags)

	samples atomic.Int64
	wallNs  atomic.Int64
	execNs  atomic.Int64
	lockNs  atomic.Int64
	ioNs    atomic.Int64
	fsyncNs atomic.Int64
	pinNs   atomic.Int64
}

// flagSet is an immutable snapshot of the flagged statements; the hot
// path reads it through one atomic pointer load.
type flagSet struct {
	m map[uint64]*flagEntry
}

var emptyFlags = &flagSet{m: map[uint64]*flagEntry{}}

// FlaggedStatement is one row of the ima_flags snapshot.
type FlaggedStatement struct {
	Hash    uint64
	Text    string
	Reason  string
	Manual  bool
	Since   time.Time
	Expires time.Time // zero for manual flags (never expire)

	Samples int64
	Waits   WaitBreakdown
}

// WaitBreakdown is a per-statement wait-state attribution: where the
// wallclock of the flagged statement's executions went. All values are
// cumulative nanoseconds since the statement was flagged.
type WaitBreakdown struct {
	WallNs    int64 // total measured wallclock
	ExecNs    int64 // executor work (wall in the engine minus waits)
	LockNs    int64 // lock-manager acquisition waits
	IONs      int64 // buffer-pool page loads and write-backs
	FsyncNs   int64 // WAL group-commit / fsync waits
	PinWaitNs int64 // backpressure on a fully pinned pool shard
}

// Sum returns the attributed total (everything but WallNs).
func (w WaitBreakdown) Sum() int64 {
	return w.ExecNs + w.LockNs + w.IONs + w.FsyncNs + w.PinWaitNs
}

// WaitTotals are the monitor-global cumulative wait counters behind
// the engine_wait_* /metrics series. They advance only for flagged
// statements (phase 2), in the same Finish call that feeds the
// per-statement breakdown, so at any quiesced moment the sums over
// ima_waits rows of never-expired flags equal these totals exactly.
type WaitTotals struct {
	ExecNs    int64
	LockNs    int64
	IONs      int64
	FsyncNs   int64
	PinWaitNs int64
}

// FlagCount returns the number of currently flagged statements (one
// atomic load; this is the hot-path gate).
func (m *Monitor) FlagCount() int64 {
	if m == nil {
		return 0
	}
	return m.flaggedCount.Load()
}

// Flag enables phase-2 wait attribution for the shape of the statement
// text — every statement sharing its digest (sqlparser.DigestOf), as the
// engine would count it. A manual flag never expires and survives
// Flagger evaluation; a non-manual flag expires ttl after the call
// (ttl <= 0 means it only leaves by Unflag). Returns false when the
// bounded flag set is full.
func (m *Monitor) Flag(text, reason string, manual bool, ttl time.Duration) bool {
	if m == nil {
		return false
	}
	return m.flagHash(sqlparser.DigestOf(text), text, reason, manual, ttl)
}

func (m *Monitor) flagHash(hash uint64, text, reason string, manual bool, ttl time.Duration) bool {
	now := time.Now()
	m.flagMu.Lock()
	defer m.flagMu.Unlock()
	cur := m.flags.Load()
	if fe := cur.m[hash]; fe != nil {
		// Already flagged: refresh the TTL (the statement is still
		// misbehaving) and let a manual request pin it. Manual flags
		// are never demoted to expiring ones.
		if manual {
			fe.manual = true
			fe.expiry.Store(0)
		} else if !fe.manual && ttl > 0 {
			fe.expiry.Store(now.Add(ttl).UnixNano())
		}
		return true
	}
	if len(cur.m) >= m.flagCap {
		return false
	}
	fe := &flagEntry{hash: hash, text: text, reason: reason, manual: manual, since: now}
	if !manual && ttl > 0 {
		fe.expiry.Store(now.Add(ttl).UnixNano())
	}
	next := make(map[uint64]*flagEntry, len(cur.m)+1)
	for k, v := range cur.m {
		next[k] = v
	}
	next[hash] = fe
	m.flags.Store(&flagSet{m: next})
	m.flaggedCount.Store(int64(len(next)))
	return true
}

// Unflag removes the phase-2 flag of the statement text's shape (manual
// override in the other direction). Returns whether it was flagged.
func (m *Monitor) Unflag(text string) bool {
	if m == nil {
		return false
	}
	return m.unflagLocked(func(cur *flagSet) []uint64 {
		hash := sqlparser.DigestOf(text)
		if _, ok := cur.m[hash]; ok {
			return []uint64{hash}
		}
		return nil
	}) > 0
}

// ExpireFlags removes non-manual flags whose TTL has passed. The
// Flagger calls it each evaluation; it is exported so embedders
// driving the monitor without a Flagger can run expiry themselves.
func (m *Monitor) ExpireFlags(now time.Time) int {
	if m == nil {
		return 0
	}
	return m.unflagLocked(func(cur *flagSet) []uint64 {
		var dead []uint64
		for h, fe := range cur.m {
			if e := fe.expiry.Load(); e != 0 && e <= now.UnixNano() {
				dead = append(dead, h)
			}
		}
		return dead
	})
}

// unflagLocked removes the hashes pick selects from the current flag
// set via one copy-on-write swap, returning how many were removed.
func (m *Monitor) unflagLocked(pick func(*flagSet) []uint64) int {
	m.flagMu.Lock()
	defer m.flagMu.Unlock()
	cur := m.flags.Load()
	dead := pick(cur)
	if len(dead) == 0 {
		return 0
	}
	next := make(map[uint64]*flagEntry, len(cur.m))
	for k, v := range cur.m {
		next[k] = v
	}
	for _, h := range dead {
		delete(next, h)
	}
	m.flags.Store(&flagSet{m: next})
	m.flaggedCount.Store(int64(len(next)))
	return len(dead)
}

// SnapshotFlags returns the current flag set with accumulated wait
// breakdowns, oldest flag first (ima_flags order).
func (m *Monitor) SnapshotFlags() []FlaggedStatement {
	if m == nil {
		return nil
	}
	fs := m.flags.Load()
	out := make([]FlaggedStatement, 0, len(fs.m))
	for _, fe := range fs.m {
		f := FlaggedStatement{
			Hash:    fe.hash,
			Text:    fe.text,
			Reason:  fe.reason,
			Manual:  fe.manual,
			Since:   fe.since,
			Samples: fe.samples.Load(),
			Waits: WaitBreakdown{
				WallNs:    fe.wallNs.Load(),
				ExecNs:    fe.execNs.Load(),
				LockNs:    fe.lockNs.Load(),
				IONs:      fe.ioNs.Load(),
				FsyncNs:   fe.fsyncNs.Load(),
				PinWaitNs: fe.pinNs.Load(),
			},
		}
		if e := fe.expiry.Load(); e != 0 {
			f.Expires = time.Unix(0, e)
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Since.Equal(out[j].Since) {
			return out[i].Since.Before(out[j].Since)
		}
		return out[i].Hash < out[j].Hash
	})
	return out
}

// WaitTotals returns the monitor-global cumulative wait counters.
func (m *Monitor) WaitTotals() WaitTotals {
	if m == nil {
		return WaitTotals{}
	}
	return WaitTotals{
		ExecNs:    m.waitExec.Load(),
		LockNs:    m.waitLock.Load(),
		IONs:      m.waitIO.Load(),
		FsyncNs:   m.waitFsync.Load(),
		PinWaitNs: m.waitPin.Load(),
	}
}

// Phase2Overhead returns the cumulative time spent inside the phase-2
// machinery itself: flag lookups and wait recording. Phase-1 sensor
// time is TotalMonitorTime; their sum over total statement wallclock
// is the monitor_overhead_ratio gauge.
func (m *Monitor) Phase2Overhead() time.Duration {
	if m == nil {
		return 0
	}
	return time.Duration(m.phase2Nanos.Load())
}

// recordWaits commits one profiled execution's breakdown: into the
// statement's flag entry (→ ima_waits) and the global totals
// (→ engine_wait_*), in the same call so the two stay in parity.
func (m *Monitor) recordWaits(hash uint64, wallNs, execNs, lockNs, ioNs, fsyncNs, pinNs int64) {
	t0 := time.Now()
	fe := m.flags.Load().m[hash]
	if fe == nil {
		// Unflagged while executing: drop the sample entirely rather
		// than let the global counters drift from the table sums.
		return
	}
	fe.samples.Add(1)
	fe.wallNs.Add(wallNs)
	fe.execNs.Add(execNs)
	fe.lockNs.Add(lockNs)
	fe.ioNs.Add(ioNs)
	fe.fsyncNs.Add(fsyncNs)
	fe.pinNs.Add(pinNs)
	m.waitExec.Add(execNs)
	m.waitLock.Add(lockNs)
	m.waitIO.Add(ioNs)
	m.waitFsync.Add(fsyncNs)
	m.waitPin.Add(pinNs)
	m.phase2Nanos.Add(int64(time.Since(t0)))
}

// Profiled reports whether this statement's shape is phase-2 flagged,
// latching the answer so Finish commits the breakdown. The engine calls
// it once the statement is prepared, so the digest is the one its entry
// carries (only a handle driven by hand hashes its text here). The
// zero-flagged fast path is one atomic load; the lookup cost when flags
// exist is counted as phase-2 overhead.
func (h *Handle) Profiled() bool {
	if h == nil || h.m == nil || h.m.flaggedCount.Load() == 0 {
		return false
	}
	t0 := time.Now()
	_, ok := h.m.flags.Load().m[h.statementDigest()]
	h.profiled = ok
	if ok {
		h.pm = h.m
	}
	h.m.phase2Nanos.Add(int64(time.Since(t0)))
	return ok
}

// FlushWaits commits the accumulated breakdown of a profiled statement.
// The engine calls it once, after Finish (which latches the wall time)
// and after every wait source — including the autocommit durability
// wait, which runs later than some Finish call sites — has accumulated.
// Idempotent; a no-op for unprofiled statements.
func (h *Handle) FlushWaits() {
	if h == nil || !h.profiled || h.pm == nil {
		return
	}
	m := h.pm
	h.pm = nil
	// The exec window closes a few clock reads after the wall clock
	// stops (the dispatch return path), so the buckets can overshoot the
	// wall by nanoseconds. Shave the skew from exec self-time first; if
	// the wait measurements alone exceed the wall (inconsistent clock
	// reads), scale them down to fit, so the invariant "breakdown sum ≤
	// wall" holds exactly at the commit point.
	if over := h.execNs + h.lockNs + h.ioNs + h.fsyncNs + h.pinNs - h.wallNs; over > 0 {
		h.execNs -= over
		if h.execNs < 0 {
			h.execNs = 0
			if waits := h.lockNs + h.ioNs + h.fsyncNs + h.pinNs; waits > h.wallNs {
				f := float64(h.wallNs) / float64(waits)
				h.lockNs = int64(float64(h.lockNs) * f)
				h.ioNs = int64(float64(h.ioNs) * f)
				h.fsyncNs = int64(float64(h.fsyncNs) * f)
				h.pinNs = int64(float64(h.pinNs) * f)
			}
		}
	}
	m.recordWaits(h.digest, h.wallNs,
		h.execNs, h.lockNs, h.ioNs, h.fsyncNs, h.pinNs)
}

// AddLockWait accumulates lock-manager acquisition wait for a
// profiled statement (no-op otherwise).
func (h *Handle) AddLockWait(d time.Duration) {
	if h != nil && h.profiled {
		h.lockNs += int64(d)
	}
}

// AddWaits accumulates the remaining breakdown buckets for a profiled
// statement; the engine calls it once per execution window with the
// deltas it measured (no-op when the statement is not profiled).
func (h *Handle) AddWaits(execNs, ioNs, fsyncNs, pinNs int64) {
	if h == nil || !h.profiled {
		return
	}
	h.execNs += execNs
	h.ioNs += ioNs
	h.fsyncNs += fsyncNs
	h.pinNs += pinNs
}

// FlaggerConfig tunes the adaptive flagging policy.
type FlaggerConfig struct {
	// MinSamples is the minimum executions a statement needs within one
	// evaluation interval before its tail is judged (default 16).
	MinSamples int64
	// P95Threshold flags any statement whose interval p95 exceeds it
	// (default 0 = disabled; set explicitly to use absolute flagging).
	P95Threshold time.Duration
	// TrendFactor flags a statement whose interval p95 exceeds
	// TrendFactor × its smoothed baseline p95 — the trend trigger
	// (default 3; values <= 1 disable it).
	TrendFactor float64
	// TTL is how long an automatic flag lives without being renewed by
	// a subsequent evaluation (default 2 minutes).
	TTL time.Duration
}

// DefaultFlagTTL is how long an automatic flag outlives the anomaly
// that raised it.
const DefaultFlagTTL = 2 * time.Minute

// Flagger is the phase-1 → phase-2 selection policy: it differences
// per-shape latency histograms between evaluations and flags shapes
// whose interval p95 crosses an absolute threshold or diverges from
// their own smoothed baseline. The storage daemon drives
// Evaluate once per poll; tests and embedders may call it directly.
type Flagger struct {
	m   *Monitor
	cfg FlaggerConfig

	mu   sync.Mutex
	prev map[uint64]LatencyCounts // cumulative histogram at last evaluation
	base map[uint64]float64       // EWMA of interval p95, nanoseconds
}

// NewFlagger builds a flagger over m with defaults filled in.
func NewFlagger(m *Monitor, cfg FlaggerConfig) *Flagger {
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 16
	}
	if cfg.TrendFactor == 0 {
		cfg.TrendFactor = 3
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultFlagTTL
	}
	return &Flagger{
		m:    m,
		cfg:  cfg,
		prev: map[uint64]LatencyCounts{},
		base: map[uint64]float64{},
	}
}

// Evaluate runs one adaptive-monitoring step: expire stale flags, then
// judge every statement's latency delta since the previous evaluation.
// It returns how many statements were flagged (or had their TTL
// renewed) and how many flags expired.
func (f *Flagger) Evaluate(now time.Time) (flagged, expired int) {
	if f == nil || f.m == nil {
		return 0, 0
	}
	expired = f.m.ExpireFlags(now)
	stmts := f.m.SnapshotStatements()

	f.mu.Lock()
	defer f.mu.Unlock()
	prev := f.prev
	next := make(map[uint64]LatencyCounts, len(stmts))
	for i := range stmts {
		st := &stmts[i]
		next[st.Hash] = st.Lat
		delta := st.Lat
		if p, ok := prev[st.Hash]; ok {
			for b := range delta {
				delta[b] -= p[b]
				if delta[b] < 0 { // statement evicted + re-inserted
					delta[b] = 0
				}
			}
		}
		n := delta.Total()
		if n < f.cfg.MinSamples {
			continue
		}
		p95 := float64(delta.Quantile(0.95))
		base, seen := f.base[st.Hash]
		if !seen {
			f.base[st.Hash] = p95
		} else {
			f.base[st.Hash] = 0.7*base + 0.3*p95
		}
		reason := ""
		switch {
		case f.cfg.P95Threshold > 0 && p95 >= float64(f.cfg.P95Threshold):
			reason = FlagReasonP95
		case seen && f.cfg.TrendFactor > 1 && p95 > f.cfg.TrendFactor*base:
			reason = FlagReasonTrend
		}
		if reason != "" && f.m.flagHash(st.Hash, st.Text, reason, false, f.cfg.TTL) {
			flagged++
		}
	}
	f.prev = next
	// Drop baselines for statements that left the monitor's ring so
	// the maps stay bounded by the statement capacity.
	for h := range f.base {
		if _, ok := next[h]; !ok {
			delete(f.base, h)
		}
	}
	return flagged, expired
}
