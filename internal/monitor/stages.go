package monitor

import (
	"sync/atomic"
	"time"

	"repro/internal/stage"
)

// Stage attribution: the engine samples one statement in a fixed number
// per session (Handle.Sample) and switches the sample's clock along the
// statement path; Finish adds the stopped vector to the statement
// entry's stage sums and to the monitor's. Only sampled executions touch
// these sums, so they are plain atomics, not striped like a Shape's
// lanes.

// stageSums accumulates the stage vectors of sampled executions.
type stageSums struct {
	last    atomic.Int64 // unix µs of the latest sample's stop
	landed  atomic.Int64 // unix µs of the cut whose row of these sums last landed
	samples atomic.Int64
	wall    atomic.Int64 // Σ wallclock, nanoseconds
	ns      [stage.N]atomic.Int64
}

func (b *stageSums) add(c *stage.Clock, wall time.Duration, now time.Time) {
	b.samples.Add(1)
	b.wall.Add(int64(wall))
	for i, v := range c.Ns {
		if v != 0 {
			b.ns[i].Add(v)
		}
	}
	b.last.Store(now.UnixMicro())
}

// StageSums is what the sampled executions of one statement shape — or,
// from StageTotals, of every statement — spent per stage: cumulative
// since the monitor started (counter semantics). For each execution the
// stages sum to its wallclock, so Σ Ns = WallNs.
type StageSums struct {
	Hash         uint64
	LastSampleUs int64 // unix µs of the latest sample's stop
	LandedUs     int64 // unix µs of the cut whose row last landed (StagesLanded)
	Samples      int64
	WallNs       int64
	Ns           [stage.N]int64

	sums *stageSums // what StagesLanded stamps
}

func (b *stageSums) read(hash uint64) StageSums {
	r := StageSums{Hash: hash, LastSampleUs: b.last.Load(), LandedUs: b.landed.Load(),
		Samples: b.samples.Load(), WallNs: b.wall.Load(), sums: b}
	for i := range b.ns {
		r.Ns[i] = b.ns[i].Load()
	}
	return r
}

// SnapshotStages returns the stage sums of every live statement entry
// with a sample, in insertion order. An evicted entry's sums leave with
// it, so StageTotals equals the rows' sum only while nothing sampled was
// evicted.
func (m *Monitor) SnapshotStages() []StageSums {
	m.stmts.mu.Lock()
	defer m.stmts.mu.Unlock()
	return m.stmts.stagesLocked()
}

func (t *stmtTable) stagesLocked() []StageSums {
	var out []StageSums
	for i := 0; i < t.n; i++ {
		if e := t.at(i); e.stages.samples.Load() != 0 {
			out = append(out, e.stages.read(e.digest))
		}
	}
	return out
}

// StageTotals returns the stage sums of every sampled execution (Hash 0).
func (m *Monitor) StageTotals() StageSums { return m.stages.read(0) }

// StagesLanded records that rows read from these stage sums were
// persisted from a cut taken at: the storage daemon's cursor passes the
// rows its append landed.
func (m *Monitor) StagesLanded(rows []StageSums, at time.Time) {
	for i := range rows {
		rows[i].sums.landed.Store(at.UnixMicro())
	}
}
