package analyzer

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/workloaddb"
)

// mvccSample is one synthetic ws_mvcc poll. Only the columns the rule
// reads get knobs; the rest are filled with plausible constants.
type mvccSample struct {
	conflicts int64 // cumulative write_conflicts
	oldestNs  int64 // oldest_snapshot_ns gauge
}

func insertMvccSeries(t *testing.T, wdb *engine.DB, samples []mvccSample) {
	t.Helper()
	s := wdb.NewSession()
	defer s.Close()
	base := time.Now()
	for i, sm := range samples {
		ts := base.Add(time.Duration(i) * time.Minute).UnixMicro()
		// Columns: ts_us, txn_begins, txn_commits, txn_aborts,
		// write_conflicts, inflight_txns, active_snapshots, aborted_ids,
		// oldest_snapshot_ns, vacuum_runs, vacuum_reclaimed,
		// vacuum_cleared, retired_ids, chain_len_p95.
		if _, err := s.Exec(fmt.Sprintf(
			"INSERT INTO %s VALUES (%d, %d, %d, %d, %d, 1, 1, 0, %d, %d, 0, 0, 0, 1)",
			workloaddb.Mvcc, ts, 100*int64(i+1), 90*int64(i+1), sm.conflicts,
			sm.conflicts, sm.oldestNs, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMvccRulesSilentWithoutData(t *testing.T) {
	an, _ := newStatsOnlyFixture(t)
	rep, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(recsOf(rep, KindMvccSnapshot)) + len(recsOf(rep, KindMvccConflict)); n != 0 {
		t.Fatalf("empty ws_mvcc produced %d MVCC recommendation(s)", n)
	}
}

func TestMvccRulesQuietBelowThresholds(t *testing.T) {
	an, wdb := newStatsOnlyFixture(t)
	// 3 conflicts over the interval (< minWriteConflicts 5) and a 2s
	// oldest snapshot (< maxSnapshotAge 60s): healthy, no advisories.
	insertMvccSeries(t, wdb, []mvccSample{
		{conflicts: 10, oldestNs: 0},
		{conflicts: 13, oldestNs: 2 * int64(time.Second)},
	})
	rep, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(recsOf(rep, KindMvccSnapshot)) + len(recsOf(rep, KindMvccConflict)); n != 0 {
		t.Fatalf("healthy series produced %d MVCC recommendation(s): %+v", n, rep.Recommendations)
	}
}

func TestMvccSnapshotRuleFires(t *testing.T) {
	// The gauge is instantaneous: only the LAST poll matters. An old
	// spike that has since resolved must not fire.
	oldSpike := 90 * int64(time.Second)
	an, wdb := newStatsOnlyFixture(t)
	insertMvccSeries(t, wdb, []mvccSample{
		{conflicts: 0, oldestNs: oldSpike},
		{conflicts: 0, oldestNs: 1 * int64(time.Second)},
	})
	rep, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(recsOf(rep, KindMvccSnapshot)); n != 0 {
		t.Fatalf("resolved snapshot spike still produced %d advisory(ies)", n)
	}

	// Now a series whose latest poll itself pins a 90s snapshot.
	an, wdb = newStatsOnlyFixture(t)
	insertMvccSeries(t, wdb, []mvccSample{
		{conflicts: 0, oldestNs: 1 * int64(time.Second)},
		{conflicts: 0, oldestNs: oldSpike},
	})
	rep, err = an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	recs := recsOf(rep, KindMvccSnapshot)
	if len(recs) != 1 {
		t.Fatalf("got %d snapshot advisories, want 1: %+v", len(recs), rep.Recommendations)
	}
	if !strings.Contains(recs[0].Reason, "90.0s") {
		t.Fatalf("reason does not report the snapshot age: %q", recs[0].Reason)
	}
	if recs[0].Score != float64(oldSpike) {
		t.Fatalf("score = %v, want %v", recs[0].Score, float64(oldSpike))
	}
}

func TestMvccConflictRuleFiresAndRanksHotStatements(t *testing.T) {
	an, wdb := newStatsOnlyFixture(t)
	// The advisory's Table field is resolved against the source catalog,
	// so the contended table must exist there.
	src := an.cfg.Source.NewSession()
	if _, err := src.Exec("CREATE TABLE accounts (id INTEGER PRIMARY KEY, bal INTEGER)"); err != nil {
		t.Fatal(err)
	}
	src.Close()
	// Conflicts are counters: the rule differences last-first, so a
	// large absolute value with no growth must stay quiet — covered by
	// the QuietBelowThresholds case above (10 -> 13). Here the interval
	// gains 8 conflicts (>= 5).
	insertMvccSeries(t, wdb, []mvccSample{
		{conflicts: 40, oldestNs: 0},
		{conflicts: 48, oldestNs: 0},
	})

	// Two write statements and one SELECT with errors: the UPDATE loses
	// most often, the SELECT must be ignored despite erroring the most.
	s := wdb.NewSession()
	ts := time.Now().UnixMicro()
	stmts := []struct {
		hash int64
		text string
		kind string
		errs int
	}{
		{hash: 1, text: "UPDATE accounts SET bal = bal - 1 WHERE id = 7", kind: "UPDATE", errs: 6},
		{hash: 2, text: "DELETE FROM accounts WHERE id = 9", kind: "DELETE", errs: 2},
		{hash: 3, text: "SELECT * FROM accounts", kind: "SELECT", errs: 9},
	}
	for _, st := range stmts {
		if _, err := s.Exec(fmt.Sprintf(
			"INSERT INTO %s VALUES (%d, %d, '%s', '%s', %d, %d, %d)",
			workloaddb.Statements, ts, st.hash, st.text, st.kind, int64(st.errs), ts, ts)); err != nil {
			t.Fatal(err)
		}
		// The error column is a count: two raw rows (one failed
		// execution each) and one row summing the rest of 20 executions.
		for _, row := range [][2]int{{1, 1}, {1, 1}, {st.errs - 2, 18}} {
			if _, err := s.Exec(fmt.Sprintf(
				"INSERT INTO %s VALUES (%d, %d, %d, 100, 10, 50, 50, 1.0, 1.0, 1.0, 0, 10, %d, %d)",
				workloaddb.Workload, ts, st.hash, ts, row[0], row[1])); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Close()

	rep, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	recs := recsOf(rep, KindMvccConflict)
	if len(recs) != 1 {
		t.Fatalf("got %d conflict advisories, want 1: %+v", len(recs), rep.Recommendations)
	}
	r := recs[0]
	if !strings.Contains(r.Reason, "8 first-updater-wins") {
		t.Fatalf("reason does not report the differenced count: %q", r.Reason)
	}
	// The UPDATE (6 errors) must be ranked ahead of the DELETE (2); the
	// SELECT (9 errors) must not appear at all.
	up := strings.Index(r.Reason, "UPDATE accounts")
	del := strings.Index(r.Reason, "DELETE FROM accounts")
	if up < 0 || del < 0 || up > del {
		t.Fatalf("hot-statement ranking wrong in reason: %q", r.Reason)
	}
	if strings.Contains(r.Reason, "SELECT") {
		t.Fatalf("read statement ranked as conflict-hot: %q", r.Reason)
	}
	if r.Table != "accounts" {
		t.Fatalf("advisory table = %q, want accounts (from the hottest statement)", r.Table)
	}
}
