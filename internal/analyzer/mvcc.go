package analyzer

import (
	"fmt"
	"sort"

	"repro/internal/workloaddb"
)

// MVCC health analysis over the ws_mvcc series: where the wait-state
// rules ask "where does wall-clock go?", these ask "is snapshot
// isolation itself degrading?" — a stalled vacuum horizon bloats
// version chains for every reader, and a high write-conflict rate
// means the workload's writers keep aborting each other.

// ruleMvcc evaluates the two MVCC symptoms:
//
//   - long snapshots: the latest poll's oldest_snapshot_ns gauge above
//     maxSnapshotAge means some session pins an old visibility horizon,
//     blocking vacuum from reclaiming dead versions;
//   - conflict-hot statements: the differenced write_conflicts counter
//     above minWriteConflicts points at first-updater-wins aborts; the
//     statements responsible are ranked by their error counts in
//     ws_workload (restricted to write statements via ws_statements).
//
// A missing ws_mvcc table (workload DBs collected before MVCC existed)
// skips the rule rather than failing the analysis.
func (a *Analyzer) ruleMvcc(rep *Report) error {
	s := a.cfg.WorkloadDB.NewSession()
	defer s.Close()
	res, err := s.Exec(`SELECT ts_us, write_conflicts, oldest_snapshot_ns, txn_aborts
		FROM ` + workloaddb.Mvcc + ` ORDER BY ts_us`)
	if err != nil || len(res.Rows) == 0 {
		return nil
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	conflicts := last[1].I
	if len(res.Rows) > 1 {
		conflicts -= first[1].I
	}
	oldestNs := last[2].I

	if oldestNs >= maxSnapshotAge.Nanoseconds() {
		rep.Recommendations = append(rep.Recommendations, Recommendation{
			Kind: KindMvccSnapshot,
			SQL:  "-- close long-running transactions or read sessions (oldest snapshot pins the vacuum horizon)",
			Reason: fmt.Sprintf("the oldest active snapshot is %.1fs old (threshold %.1fs); vacuum cannot reclaim versions deleted after it was taken, so version chains and dead-tuple scans grow for every reader",
				float64(oldestNs)/1e9, maxSnapshotAge.Seconds()),
			Score: float64(oldestNs),
		})
	}

	if conflicts >= minWriteConflicts {
		hot := a.conflictHotStatements(3)
		reason := fmt.Sprintf("%d first-updater-wins write conflict(s) in the collected interval", conflicts)
		if len(hot) > 0 {
			reason += "; statements failing most often: "
			for i, h := range hot {
				if i > 0 {
					reason += ", "
				}
				reason += fmt.Sprintf("%.40q (%d errors)", oneLine(h.text), h.errs)
			}
		}
		rec := Recommendation{
			Kind:   KindMvccConflict,
			SQL:    "-- serialize hot-row writers (queue them application-side) or split the contended rows",
			Reason: reason,
			Score:  float64(conflicts),
		}
		if len(hot) > 0 {
			if ts := a.tablesOf(hot[0].text); len(ts) > 0 {
				rec.Table = ts[0]
			}
		}
		rep.Recommendations = append(rep.Recommendations, rec)
	}
	return nil
}

// conflictHot is one write statement's cumulative error count.
type conflictHot struct {
	hash int64
	text string
	errs int64
}

// conflictHotStatements ranks write statements by their error counts in
// ws_workload. Write-conflict aborts surface as statement errors, so
// under a conflict-heavy interval the ranking singles out the UPDATE /
// DELETE / INSERT statements writers keep losing on. Best effort: any
// query failure yields an empty list.
func (a *Analyzer) conflictHotStatements(limit int) []conflictHot {
	s := a.cfg.WorkloadDB.NewSession()
	defer s.Close()

	kinds := map[int64]string{}
	texts := map[int64]string{}
	if res, err := s.Exec(`SELECT hash, query_text, kind FROM ` + workloaddb.Statements); err == nil {
		for _, r := range res.Rows {
			kinds[r[0].I] = r[2].S
			texts[r[0].I] = r[1].S
		}
	} else {
		return nil
	}

	errs := map[int64]int64{}
	if res, err := s.Exec(`SELECT hash, error FROM ` + workloaddb.Workload); err == nil {
		for _, r := range res.Rows {
			if r[1].I != 0 {
				errs[r[0].I] += r[1].I
			}
		}
	} else {
		return nil
	}

	var out []conflictHot
	for h, n := range errs {
		switch kinds[h] {
		case "UPDATE", "DELETE", "INSERT":
			out = append(out, conflictHot{hash: h, text: texts[h], errs: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].errs != out[j].errs {
			return out[i].errs > out[j].errs
		}
		return out[i].hash < out[j].hash
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}
