package monitor

import (
	"sort"
	"time"
)

// Snapshot is a consistent copy of all ring buffers, taken by the IMA
// layer and the storage daemon.
type Snapshot struct {
	Taken      time.Time
	Statements []StatementInfo
	Workload   []WorkloadEntry
	References []Reference
	TableFreq  map[string]int64
	AttrFreq   map[string]int64
	IndexFreq  map[string]int64
}

// statementsLocked copies the live statements of every shard, merged
// in global insertion order (each statement carries its insertion
// sequence). Caller holds all statement shard locks.
func (m *Monitor) statementsLocked() []StatementInfo {
	var out []StatementInfo
	for i := range m.shards {
		for _, si := range m.shards[i].stmts {
			out = append(out, *si)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// referencesLocked merges the per-shard reference rings in global
// insertion order. Caller holds all statement shard locks.
func (m *Monitor) referencesLocked() []Reference {
	type seqRef struct {
		seq uint64
		r   Reference
	}
	var tagged []seqRef
	for i := range m.shards {
		sh := &m.shards[i]
		start := sh.refPos - sh.refLen
		if start < 0 {
			start += sh.refCap
		}
		for j := 0; j < sh.refLen; j++ {
			p := (start + j) % sh.refCap
			tagged = append(tagged, seqRef{seq: sh.refSeqs[p], r: sh.refs[p]})
		}
	}
	sort.Slice(tagged, func(a, b int) bool { return tagged[a].seq < tagged[b].seq })
	out := make([]Reference, len(tagged))
	for i, t := range tagged {
		out[i] = t.r
	}
	return out
}

// frequenciesLocked sums the per-shard frequency maps and expands the
// reference-set counters into them. Caller holds all statement shard
// locks.
func (m *Monitor) frequenciesLocked() (table, attr, index map[string]int64) {
	table = map[string]int64{}
	attr = map[string]int64{}
	index = map[string]int64{}
	m.refMu.Lock()
	for slot, rs := range m.refSets {
		if rs == nil {
			continue
		}
		var n int64
		for i := range m.shards {
			if sc := m.shards[i].setCounts; slot < len(sc) {
				n += sc[slot]
			}
		}
		if n == 0 {
			continue
		}
		for _, t := range rs.Tables {
			table[t] += n
		}
		for _, a := range rs.Attrs {
			attr[a] += n
		}
		for _, ix := range rs.Indexes {
			index[ix] += n
		}
	}
	m.refMu.Unlock()
	for i := range m.shards {
		sh := &m.shards[i]
		for k, v := range sh.tableFreq {
			table[k] += v
		}
		for k, v := range sh.attrFreq {
			attr[k] += v
		}
		for k, v := range sh.indexFreq {
			index[k] += v
		}
	}
	return table, attr, index
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

// Snapshot copies the current monitor state. Workload entries are
// returned oldest first. It holds every shard lock at once, so it sees
// one consistent cut across all structures; the narrower Snapshot*
// accessors are cheaper when only one table is read (the IMA
// providers' per-table reads).
func (m *Monitor) Snapshot() Snapshot {
	m.lockStmtShards()
	m.lockWorkShards()
	defer m.unlockWorkShards()
	defer m.unlockStmtShards()

	s := Snapshot{Taken: time.Now()}
	s.Statements = m.statementsLocked()
	s.References = m.referencesLocked()
	s.TableFreq, s.AttrFreq, s.IndexFreq = m.frequenciesLocked()
	s.Workload = m.workloadLocked()
	return s
}

// SnapshotStatementSide copies the statement-side state — statements,
// references and object frequencies — in one consistent cut, without
// locking the workload shards (the Workload field is left nil). The
// storage daemon pairs it with DrainWorkload so a poll never blocks
// concurrent workload commits while it merges the statement table.
func (m *Monitor) SnapshotStatementSide() Snapshot {
	m.lockStmtShards()
	defer m.unlockStmtShards()

	s := Snapshot{Taken: time.Now()}
	s.Statements = m.statementsLocked()
	s.References = m.referencesLocked()
	s.TableFreq, s.AttrFreq, s.IndexFreq = m.frequenciesLocked()
	return s
}

// SnapshotStatements copies the statement table in insertion order.
func (m *Monitor) SnapshotStatements() []StatementInfo {
	m.lockStmtShards()
	defer m.unlockStmtShards()
	return m.statementsLocked()
}

// SnapshotReferences copies the reference rings in insertion order.
func (m *Monitor) SnapshotReferences() []Reference {
	m.lockStmtShards()
	defer m.unlockStmtShards()
	return m.referencesLocked()
}

// SnapshotFrequencies copies the per-object frequency maps (tables,
// attributes, indexes), summed across shards.
func (m *Monitor) SnapshotFrequencies() (table, attr, index map[string]int64) {
	m.lockStmtShards()
	defer m.unlockStmtShards()
	return m.frequenciesLocked()
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
