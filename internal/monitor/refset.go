package monitor

// Reference sets make the object-frequency sensor cost one increment
// per statement however many tables, attributes and indexes the
// statement references. The engine registers one RefSet per prepared
// statement shape and hands it to the handle (Handle.Prepared); Finish
// bumps the set's slot in the statement shard it already holds locked,
// and snapshots expand slot counts back into per-name frequencies. The
// per-name maps remain as the store for executions that ran without a
// registered set (the first execution of a shape, DDL, failed
// statements) and for the counts of sets the engine retired.

// RefSet is the set of objects one statement shape references, in the
// order the reference ring records them. The slices are immutable.
type RefSet struct {
	Tables  []string
	Attrs   []string // "table.column"
	Indexes []string

	// slot indexes every shard's setCounts; -1 once retired. Written at
	// registration (before the set is published) and by RetireRefSets
	// under every statement-shard lock; read by Finish under one.
	slot int32
}

// NewRefSet registers a reference set and returns it. A nil monitor
// returns nil, which every consumer treats as "no set". The caller
// must retire the set when it drops it (RetireRefSets) or its slot is
// never reused.
func (m *Monitor) NewRefSet(tables, attrs, indexes []string) *RefSet {
	if m == nil {
		return nil
	}
	rs := &RefSet{Tables: tables, Attrs: attrs, Indexes: indexes}
	m.refMu.Lock()
	if n := len(m.freeSlots); n > 0 {
		rs.slot, m.freeSlots = m.freeSlots[n-1], m.freeSlots[:n-1]
		m.refSets[rs.slot] = rs
	} else {
		rs.slot = int32(len(m.refSets))
		m.refSets = append(m.refSets, rs)
	}
	m.refMu.Unlock()
	return rs
}

// RetireRefSets folds the counts of the given sets into the per-name
// frequencies and frees their slots. A statement still executing with a
// retired set counts name by name. Nil and already retired sets are
// skipped.
func (m *Monitor) RetireRefSets(sets []*RefSet) {
	if m == nil || len(sets) == 0 {
		return
	}
	m.lockStmtShards()
	m.refMu.Lock()
	for _, rs := range sets {
		if rs == nil || rs.slot < 0 {
			continue
		}
		for i := range m.shards {
			sh := &m.shards[i]
			if int(rs.slot) < len(sh.setCounts) {
				sh.countNamesLocked(rs.Tables, rs.Attrs, rs.Indexes, sh.setCounts[rs.slot])
				sh.setCounts[rs.slot] = 0
			}
		}
		m.refSets[rs.slot] = nil
		m.freeSlots = append(m.freeSlots, rs.slot)
		rs.slot = -1
	}
	m.refMu.Unlock()
	m.unlockStmtShards()
}

// countSetLocked counts one execution of the reference set in slot.
func (sh *stmtShard) countSetLocked(slot int32) {
	if int(slot) >= len(sh.setCounts) {
		grown := make([]int64, max(int(slot)+1, 2*len(sh.setCounts)))
		copy(grown, sh.setCounts)
		sh.setCounts = grown
	}
	sh.setCounts[slot]++
}

// countNamesLocked adds n executions to every listed object's
// frequency.
func (sh *stmtShard) countNamesLocked(tables, attrs, indexes []string, n int64) {
	if n == 0 {
		return
	}
	for _, t := range tables {
		sh.tableFreq[t] += n
	}
	for _, a := range attrs {
		sh.attrFreq[a] += n
	}
	for _, ix := range indexes {
		sh.indexFreq[ix] += n
	}
}
