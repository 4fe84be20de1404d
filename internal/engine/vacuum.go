package engine

import (
	"sort"
	"strings"

	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// Vacuum reclaims dead row versions. A version is dead when no active
// or future snapshot can see it:
//
//   - its creator aborted (aborted versions are never undone
//     physically, they just become invisible), or
//   - its deleter committed below the vacuum horizon — the id floor
//     under every active snapshot — so every snapshot sees the delete.
//
// Reclaiming drops the version's index entries, frees its heap slot,
// and thereby clips version chains: the newest surviving version's
// Prev pointer goes stale, which readers never follow (scans visit
// slots directly) and chain statistics treat as the chain end.
//
// Vacuum additionally clears aborted Xmax stamps (the deleter aborted,
// so the version is fully live again); once a pass has removed every
// on-disk reference to the ids that were already aborted when it
// started, those ids are retired from the in-memory aborted set.
//
// Admission: per table, vacuum enters like a write statement — named in
// its own slot (so DDL waits for it, and a pending DDL parks it: it
// holds nothing), then a WAL unit, then the statement write gate — so it
// serializes with writers on that table but never blocks readers and
// never waits on row locks. Work is two-phase per table because page
// latches are not reentrant: phase A collects candidates under a
// read-only scan, phase B mutates under the gate within a WAL unit.

// VacuumStats summarizes one vacuum pass.
type VacuumStats struct {
	Tables    int   // tables visited successfully
	Reclaimed int64 // dead versions removed (slot + index entries)
	Cleared   int64 // aborted Xmax stamps reset to 0
	Retired   int64 // aborted txn ids proven unreferenced and dropped
	ChainP95  int64 // p95 surviving version-chain length across tables
}

// vacuumCandidate is one slot phase A decided on. A reclaim carries
// the decoded row (needed to compute index keys); a clear does not.
type vacuumCandidate struct {
	tid     storage.TID
	row     sqltypes.Row
	reclaim bool
}

// Vacuum runs one pass over every table. It is called from the
// monitoring daemon's poll loop and from tests; concurrent calls are
// safe but pointless (the second serializes on the per-table gates).
func (db *DB) Vacuum() (VacuumStats, error) {
	var stats VacuumStats
	// The horizon and the aborted set are sampled once, before any
	// table is visited. An id below the horizon that is not in the
	// sampled aborted set is committed: in-flight ids (then or later)
	// are never below the horizon, and the aborted set only grows.
	horizon := db.vacuumHorizon()
	abortedAtStart := *db.txns.aborted.Load()
	var sl slot
	db.slots.Store(&sl, nil)
	defer db.slots.Delete(&sl)

	db.mu.Lock()
	handles := make([]*tableHandle, 0, len(db.tables))
	for _, h := range db.tables {
		handles = append(handles, h)
	}
	db.mu.Unlock()
	sort.Slice(handles, func(i, j int) bool { return handles[i].meta.Name < handles[j].meta.Name })

	var (
		chains   []int
		clean    = true
		firstErr error
	)
	for _, h := range handles {
		cl, err := db.vacuumTable(&sl, h, horizon, abortedAtStart, &stats)
		if err != nil {
			// One broken table must not stop reclaiming the others, but
			// it does forfeit id retirement: the failed table may still
			// reference aborted ids.
			clean = false
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		chains = append(chains, cl...)
		stats.Tables++
	}
	// A pass that changed pages makes its WAL units durable itself, so
	// the next foreground commit does not pay to write and fsync them
	// and they do not sit in the staging buffer until it comes.
	if stats.Reclaimed+stats.Cleared > 0 {
		if err := db.wal.Sync(); err != nil {
			clean = false
			if firstErr == nil {
				firstErr = err
			}
		}
	}

	if clean && len(abortedAtStart) > 0 {
		ids := make([]uint64, 0, len(abortedAtStart))
		for id := range abortedAtStart {
			ids = append(ids, id)
		}
		db.txns.retire(ids)
		stats.Retired = int64(len(ids))
	}
	stats.ChainP95 = chainP95(chains)

	db.vacRuns.Add(1)
	db.vacReclaimed.Add(stats.Reclaimed)
	db.vacCleared.Add(stats.Cleared)
	db.vacChainP95.Store(stats.ChainP95)
	return stats, firstErr
}

// vacuumTable runs one two-phase pass over a single table and returns
// the surviving chain lengths it observed.
func (db *DB) vacuumTable(sl *slot, h *tableHandle, horizon uint64, aborted map[uint64]bool, stats *VacuumStats) (_ []int, err error) {
	tables := []string{strings.ToLower(h.meta.Name)}
	db.admit(sl, &tables, nil)
	defer sl.tables.Store(nil)
	if db.handle(tables[0]) != h {
		return nil, nil // dropped while vacuum waited
	}
	// The WAL unit must be finished even on error: phase-B page mutations
	// are already in the pool, and the captured images must reach the log
	// before the gate lets the next writer attach.
	wtx := db.wal.Begin()
	gateID := db.nextSession.Add(1)
	defer func() {
		if cerr := wtx.Commit(false); cerr != nil && err == nil {
			err = cerr
		}
		db.locks.ReleaseAll(gateID)
	}()
	if err := db.locks.Acquire(gateID, writeGateKey(tables[0])); err != nil {
		return nil, err
	}

	// Phase A: read-only scan. Collect reclaim/clear candidates and the
	// Prev-pointer graph for chain statistics. No mutation happens here
	// — heap page latches are not reentrant, so freeing slots from
	// inside the scan callback would self-deadlock.
	var (
		cands    []vacuumCandidate
		prevs    = map[storage.TID]storage.TID{}
		reclaims int64
		cleared  int64
	)
	_, err = scanRecords(h, nil, func(tid storage.TID, rec []byte) (bool, error) {
		vh := storage.ReadVersionHeader(rec)
		if aborted[vh.Xmin] {
			// Creator aborted: dead regardless of Xmax.
			row, derr := sqltypes.DecodeRow(storage.VersionPayload(rec), nil)
			if derr != nil {
				return false, derr
			}
			cands = append(cands, vacuumCandidate{tid: tid, row: row, reclaim: true})
			return true, nil
		}
		if vh.Xmax != 0 {
			if aborted[vh.Xmax] {
				// Deleter aborted: the version is live, clear the stamp
				// so the id can be retired.
				cands = append(cands, vacuumCandidate{tid: tid})
			} else if vh.Xmax < horizon {
				// Deleter committed below every snapshot's horizon.
				row, derr := sqltypes.DecodeRow(storage.VersionPayload(rec), nil)
				if derr != nil {
					return false, derr
				}
				cands = append(cands, vacuumCandidate{tid: tid, row: row, reclaim: true})
				return true, nil
			}
		}
		if vh.Prev != 0 {
			prevs[tid] = vh.Prev
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}

	// Phase B: mutate under the gate with the WAL transaction attached,
	// so before/after page images are captured like any DML statement.
	if len(cands) > 0 {
		detach := db.attachWalTxn(h, wtx)
		defer detach()
		for _, c := range cands {
			if c.reclaim {
				if derr := db.dropVersionIndexEntries(h, c.tid, c.row); derr != nil {
					return nil, derr
				}
				if derr := h.heap.FreeSlot(c.tid); derr != nil {
					return nil, derr
				}
				reclaims++
			} else {
				if derr := h.heap.SetXmax(c.tid, 0); derr != nil {
					return nil, derr
				}
				cleared++
			}
		}
	}
	stats.Reclaimed += reclaims
	stats.Cleared += cleared
	return chainLengths(prevs), nil
}

// chainLengths walks the surviving Prev graph from its heads (versions
// no other version points back to) and returns each chain's length. A
// stale Prev pointing at a reclaimed or reused slot simply is not in
// the map and ends the walk; walks are capped defensively in case of
// a (theoretically impossible) cycle.
func chainLengths(prevs map[storage.TID]storage.TID) []int {
	if len(prevs) == 0 {
		return nil
	}
	pointedTo := make(map[storage.TID]bool, len(prevs))
	for _, p := range prevs {
		pointedTo[p] = true
	}
	var out []int
	maxWalk := len(prevs) + 1
	for head := range prevs {
		if pointedTo[head] {
			continue
		}
		n := 1
		for cur, ok := prevs[head]; ok && n < maxWalk; cur, ok = prevs[cur] {
			n++
		}
		out = append(out, n)
	}
	return out
}

// chainP95 returns the 95th-percentile chain length (1 when no chains
// exist — every row is its own single-version chain).
func chainP95(chains []int) int64 {
	if len(chains) == 0 {
		return 1
	}
	sort.Ints(chains)
	i := (len(chains)*95 + 99) / 100
	if i > 0 {
		i--
	}
	return int64(chains[i])
}
