package monitor

import "time"

// Snapshot is a copy of the statement table and the workload relation,
// taken by the IMA layer and the storage daemon.
type Snapshot struct {
	Taken      time.Time
	Statements []StatementInfo
	Workload   []WorkloadEntry
	Stages     []StageSums
	References []Reference
	TableFreq  map[string]int64
	AttrFreq   map[string]int64
	IndexFreq  map[string]int64
}

// Snapshot copies the current monitor state in one cut across the
// statement table, every entry's pending cost sums (evicted entries
// first, then the live ones) and the live entries' stage sums; the
// narrower Snapshot* accessors are cheaper when only one table is read
// (the IMA providers' per-table reads). The storage daemon persists from one Snapshot per poll and
// hands the workload rows that landed to Landed.
func (m *Monitor) Snapshot() Snapshot {
	t := &m.stmts
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Snapshot{Taken: time.Now(), Statements: t.statementsLocked(), References: t.referencesLocked()}
	s.TableFreq, s.AttrFreq, s.IndexFreq = t.frequenciesLocked()
	s.Workload = t.workloadLocked()
	s.Stages = t.stagesLocked()
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

// SnapshotWorkload reads the workload relation: one row per statement
// entry with unpersisted cost sums. Reading takes nothing; Landed does.
func (m *Monitor) SnapshotWorkload() []WorkloadEntry {
	m.stmts.mu.Lock()
	defer m.stmts.mu.Unlock()
	return m.stmts.workloadLocked()
}
