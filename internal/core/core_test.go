package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/daemon"
	"repro/internal/monitor"
)

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
}

// TestFullControlLoop drives the paper's Figure 1 loop end to end:
// monitor a workload, store it, analyze it, implement the changes, and
// observe the workload getting cheaper.
func TestFullControlLoop(t *testing.T) {
	sys, err := Open(Options{Dir: t.TempDir(), PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	s := sys.Session()
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE ev (id INTEGER PRIMARY KEY, kind INTEGER, note VARCHAR(64))"); err != nil {
		t.Fatal(err)
	}
	for base := 0; base < 3000; base += 250 {
		stmt := "INSERT INTO ev VALUES "
		for i := base; i < base+250; i++ {
			if i > base {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, %d, 'note-%d')", i, i%40, i)
		}
		if _, err := s.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	// Monitoring phase: a repeated selective query.
	for i := 0; i < 20; i++ {
		if _, err := s.Exec(fmt.Sprintf("SELECT note FROM ev WHERE kind = %d", i%40)); err != nil {
			t.Fatal(err)
		}
	}
	// Storing phase.
	if err := sys.Poll(); err != nil {
		t.Fatal(err)
	}
	// Analysis phase.
	rep, err := sys.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Recommendations) == 0 {
		t.Fatal("no recommendations for an index-starved workload")
	}
	var hasIndex bool
	for _, r := range rep.Recommendations {
		if r.Kind == analyzer.KindIndex && r.Table == "ev" {
			hasIndex = true
		}
	}
	if !hasIndex {
		t.Errorf("no index recommended on ev.kind; got %+v", rep.Recommendations)
	}

	before, _ := s.Exec("SELECT note FROM ev WHERE kind = 7")

	// Implementation phase.
	if err := sys.Apply(rep); err != nil {
		t.Fatal(err)
	}
	after, err := s.Exec("SELECT note FROM ev WHERE kind = 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != len(before.Rows) {
		t.Fatalf("tuning changed results: %d vs %d", len(after.Rows), len(before.Rows))
	}
	if !strings.Contains(after.Plan.String(), "IndexScan") {
		t.Errorf("tuned plan still scans:\n%s", after.Plan.String())
	}
}

func TestAlertsThroughSystem(t *testing.T) {
	fired := 0
	sys, err := Open(Options{
		Dir: t.TempDir(),
		Alerts: []daemon.Alert{{
			Name:      "sessions",
			Query:     "SELECT peak_sessions FROM ima_statistics",
			Op:        ">=",
			Threshold: 1,
			Action:    func(daemon.Event) { fired++ },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	s := sys.Session()
	defer s.Close()
	if err := sys.Poll(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("alert fired %d times", fired)
	}
}

// TestApplyOnlineAuditTrail drives the canary state machine through the
// wired system and asserts the verdicts where a DBA would read them:
// the ima_actions virtual table over plain SQL, and ws_actions after a
// daemon poll. An injected p95 regression must produce a rolled-back
// verdict (and actually drop the index); a clean canary must produce an
// accepted one.
func TestApplyOnlineAuditTrail(t *testing.T) {
	fast, slow := 8, 30 // latency buckets: unambiguous regression
	series := make([]monitor.LatencyCounts, 0, 8)
	mk := func(b int, n int64, prev monitor.LatencyCounts) monitor.LatencyCounts {
		prev[b] += n
		return prev
	}
	// First action (rolled back): clean baseline, slow canary. Second
	// action (accepted): clean baseline, clean canary.
	var c monitor.LatencyCounts
	series = append(series, c)
	c = mk(fast, 100, c)
	series = append(series, c, c)
	c = mk(slow, 100, c)
	series = append(series, c, c)
	c = mk(fast, 100, c)
	series = append(series, c, c)
	c = mk(fast, 100, c)
	series = append(series, c)
	i := 0
	sys, err := Open(Options{Dir: t.TempDir(), Apply: analyzer.ApplyConfig{
		Sleep: func(time.Duration) {},
		Latency: func() monitor.LatencyCounts {
			v := series[i]
			if i < len(series)-1 {
				i++
			}
			return v
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	s := sys.Session()
	if _, err := s.Exec("CREATE TABLE at (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 40; r++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO at VALUES (%d, %d, %d)", r, r%5, r%7)); err != nil {
			t.Fatal(err)
		}
	}
	rep := &analyzer.Report{Recommendations: []analyzer.Recommendation{
		{Kind: analyzer.KindIndex, Table: "at", SQL: "CREATE INDEX ix_at_a ON at (a)"},
		{Kind: analyzer.KindIndex, Table: "at", SQL: "CREATE INDEX ix_at_b ON at (b)"},
	}}
	if err := sys.ApplyOnline(rep); err != nil {
		t.Fatal(err)
	}

	// The regressing index was dropped, the clean one kept.
	if sys.DB.Catalog().Index("ix_at_a") != nil {
		t.Fatal("regressing index survived its canary")
	}
	if sys.DB.Catalog().Index("ix_at_b") == nil {
		t.Fatal("clean index was not kept")
	}
	// Verdicts over SQL, exactly as a DBA would read them.
	res, err := s.Exec("SELECT target, state FROM ima_actions WHERE state = 'rolled-back' OR state = 'accepted'")
	if err != nil {
		t.Fatal(err)
	}
	verdicts := map[string]bool{}
	for _, r := range res.Rows {
		verdicts[r[0].S+"/"+r[1].S] = true
	}
	if !verdicts["at/rolled-back"] || !verdicts["at/accepted"] {
		t.Fatalf("ima_actions verdicts missing: %v", verdicts)
	}
	// And persisted into the workload DB by the next poll.
	if err := sys.Poll(); err != nil {
		t.Fatal(err)
	}
	ws := sys.WorkloadDB.NewSession()
	defer ws.Close()
	wres, err := ws.Exec("SELECT state FROM ws_actions WHERE state = 'rolled-back'")
	if err != nil {
		t.Fatal(err)
	}
	if len(wres.Rows) != 1 {
		t.Fatalf("ws_actions has %d rolled-back rows, want 1", len(wres.Rows))
	}
}
