package monitor

import "time"

// Snapshot is a copy of the statement table and the workload relation,
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

// statementSideLocked fills in the statement-side fields. Caller holds
// the statement-table mutex.
func (m *Monitor) statementSideLocked(s *Snapshot) {
	t := &m.stmts
	s.Statements = t.statementsLocked()
	s.References = t.referencesLocked()
	s.TableFreq, s.AttrFreq, s.IndexFreq = t.frequenciesLocked()
}

// Snapshot copies the current monitor state in one cut across the
// statement table, the Shapes' pending cost sums and the workload ring
// (ring entries oldest first, then one entry per shape); the narrower
// Snapshot* accessors are cheaper when only one table is read (the IMA
// providers' per-table reads).
func (m *Monitor) Snapshot() Snapshot {
	m.stmts.mu.Lock()
	defer m.stmts.mu.Unlock()
	s := Snapshot{Taken: time.Now()}
	m.statementSideLocked(&s)
	s.Workload = m.stmts.workloadLocked(false)
	return s
}

// SnapshotStatementSide copies the statement-side state — statements,
// references and object frequencies — in one cut (the Workload field is
// left nil). The storage daemon pairs it with DrainWorkload.
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

// SnapshotWorkload copies the workload relation without draining it:
// the ring's entries, oldest first, then a read of each Shape's pending
// cost sums.
func (m *Monitor) SnapshotWorkload() []WorkloadEntry {
	m.stmts.mu.Lock()
	defer m.stmts.mu.Unlock()
	return m.stmts.workloadLocked(false)
}

// DrainWorkload returns and clears the workload relation: the ring's
// entries plus one entry per Shape whose cost sums it swapped to zero.
// The daemon uses it so that each poll sees every execution exactly once
// even when the poll interval is long.
func (m *Monitor) DrainWorkload() []WorkloadEntry {
	m.stmts.mu.Lock()
	out := m.stmts.workloadLocked(true)
	m.stmts.mu.Unlock()
	return out
}
