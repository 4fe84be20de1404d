package monitor

import (
	"sort"
	"time"
)

// Snapshot is a copy of the statement table and the workload ring,
// taken by the IMA layer and the storage daemon.
type Snapshot struct {
	Taken      time.Time
	Statements []StatementInfo
	Workload   []WorkloadEntry
	References []Reference
	TableFreq  map[string]int64
	AttrFreq   map[string]int64
	IndexFreq  map[string]int64
}

// workloadLocked merges the per-shard workload rings in execution
// order (oldest first). Caller holds all workload shard locks.
func (m *Monitor) workloadLocked() []WorkloadEntry {
	type seqEntry struct {
		seq uint64
		e   WorkloadEntry
	}
	var tagged []seqEntry
	for i := range m.workShards {
		ws := &m.workShards[i]
		start := ws.pos - ws.n
		if start < 0 {
			start += len(ws.ring)
		}
		for j := 0; j < ws.n; j++ {
			p := (start + j) % len(ws.ring)
			tagged = append(tagged, seqEntry{seq: ws.seqs[p], e: ws.ring[p]})
		}
	}
	sort.Slice(tagged, func(a, b int) bool { return tagged[a].seq < tagged[b].seq })
	out := make([]WorkloadEntry, len(tagged))
	for i, t := range tagged {
		out[i] = t.e
	}
	return out
}

// statementSideLocked fills in the statement-side fields. Caller holds
// the statement-table mutex.
func (m *Monitor) statementSideLocked(s *Snapshot) {
	t := &m.stmts
	s.Statements = t.statementsLocked()
	s.References = t.referencesLocked()
	s.TableFreq, s.AttrFreq, s.IndexFreq = t.frequenciesLocked()
}

// Snapshot copies the current monitor state. Workload entries are
// returned oldest first. It holds the statement table and every
// workload shard at once, so it sees one cut across all structures;
// the narrower Snapshot* accessors are cheaper when only one table is
// read (the IMA providers' per-table reads).
func (m *Monitor) Snapshot() Snapshot {
	m.stmts.mu.Lock()
	m.lockWorkShards()
	defer m.stmts.mu.Unlock()
	defer m.unlockWorkShards()

	s := Snapshot{Taken: time.Now()}
	m.statementSideLocked(&s)
	s.Workload = m.workloadLocked()
	return s
}

// SnapshotStatementSide copies the statement-side state — statements,
// references and object frequencies — in one cut, without locking the
// workload shards (the Workload field is left nil). The storage daemon
// pairs it with DrainWorkload so a poll never blocks concurrent
// workload commits while it copies the statement table.
func (m *Monitor) SnapshotStatementSide() Snapshot {
	m.stmts.mu.Lock()
	defer m.stmts.mu.Unlock()
	s := Snapshot{Taken: time.Now()}
	m.statementSideLocked(&s)
	return s
}

// SnapshotStatements copies the statement table in insertion order.
func (m *Monitor) SnapshotStatements() []StatementInfo {
	m.stmts.mu.Lock()
	defer m.stmts.mu.Unlock()
	return m.stmts.statementsLocked()
}

// SnapshotReferences derives the statement → object rows of the live
// statements, in insertion order.
func (m *Monitor) SnapshotReferences() []Reference {
	m.stmts.mu.Lock()
	defer m.stmts.mu.Unlock()
	return m.stmts.referencesLocked()
}

// SnapshotFrequencies returns the per-object frequencies (tables,
// attributes, indexes).
func (m *Monitor) SnapshotFrequencies() (table, attr, index map[string]int64) {
	m.stmts.mu.Lock()
	defer m.stmts.mu.Unlock()
	return m.stmts.frequenciesLocked()
}

// SnapshotWorkload copies the workload ring, oldest first, without
// draining it.
func (m *Monitor) SnapshotWorkload() []WorkloadEntry {
	m.lockWorkShards()
	defer m.unlockWorkShards()
	return m.workloadLocked()
}

// DrainWorkload returns and clears the workload ring. The daemon uses
// it so that each poll sees every execution exactly once even when the
// poll interval is long.
func (m *Monitor) DrainWorkload() []WorkloadEntry {
	m.lockWorkShards()
	out := m.workloadLocked()
	for i := range m.workShards {
		ws := &m.workShards[i]
		ws.pos = 0
		ws.n = 0
	}
	// All workload locks are held, so no Finish can be racing its
	// liveWork update here; the counter is exactly the buffered count.
	m.liveWork.Store(0)
	m.unlockWorkShards()
	m.fullFired.Store(false)
	return out
}
