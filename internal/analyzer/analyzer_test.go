package analyzer

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/ima"
	"repro/internal/lock"
	"repro/internal/monitor"
	"repro/internal/nref"
)

// fixture loads a small NREF database, runs a workload through the
// monitored engine and persists it with one daemon poll.
type fixture struct {
	source *engine.DB
	wdb    *engine.DB
	an     *Analyzer
}

func newFixture(t *testing.T, scale int) *fixture {
	t.Helper()
	dir := t.TempDir()
	mon := monitor.New(monitor.Config{})
	source, err := engine.Open(engine.Config{Dir: filepath.Join(dir, "src"), PoolPages: 512, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if err := ima.Register(ima.Sources{DB: source, Mon: mon}); err != nil {
		t.Fatal(err)
	}
	if err := nref.NewGenerator(scale, 1).Load(source); err != nil {
		t.Fatal(err)
	}
	wdb, err := engine.Open(engine.Config{Dir: filepath.Join(dir, "wdb"), PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { source.Close(); wdb.Close() })

	// Run a workload: repeated selective queries that would benefit
	// from indexes, plus the complex mix.
	s := source.NewSession()
	defer s.Close()
	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf("SELECT name FROM protein WHERE taxonomy_id = %d", i%7))
		mustExec(t, s, fmt.Sprintf("SELECT organism_name FROM organism WHERE nref_id = '%s'", nref.NrefID(i)))
	}
	for _, q := range nref.Complex50(scale)[:10] {
		mustExec(t, s, q)
	}

	d, err := daemon.New(daemon.Config{Source: source, Mon: mon, Target: wdb})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Poll(); err != nil {
		t.Fatal(err)
	}

	an, err := New(Config{Source: source, WorkloadDB: wdb})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{source: source, wdb: wdb, an: an}
}

func mustExec(t *testing.T, s *engine.Session, sql string) *engine.Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestAnalyzeProducesAllRuleKinds(t *testing.T) {
	f := newFixture(t, 1500)
	rep, err := f.an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[Kind]int{}
	for _, r := range rep.Recommendations {
		kinds[r.Kind]++
	}
	if kinds[KindStatistics] == 0 {
		t.Error("no statistics recommendations (histograms are missing, estimates diverge)")
	}
	if kinds[KindModify] == 0 {
		t.Error("no MODIFY TO BTREE recommendations despite heap overflow pages")
	}
	if kinds[KindIndex] == 0 {
		t.Error("no index recommendations for a selective repeated workload")
	}
	if rep.DivergentCount == 0 {
		t.Error("no divergent statements flagged (defaults without histograms should misestimate)")
	}
	if len(rep.Statements) == 0 {
		t.Fatal("no statements analyzed")
	}
	if !strings.Contains(rep.CostDiagram, "Q1") {
		t.Errorf("cost diagram missing:\n%s", rep.CostDiagram)
	}
	if rep.WhatIfEstCost >= rep.BaselineEstCost {
		t.Errorf("what-if cost %.1f not below baseline %.1f",
			rep.WhatIfEstCost, rep.BaselineEstCost)
	}
	// No stray virtual indexes may survive the analysis.
	for _, ix := range f.source.Catalog().Indexes() {
		if ix.Virtual {
			t.Errorf("leftover virtual index %s", ix.Name)
		}
	}
}

func TestRecommendedIndexesAreUsedByOptimizer(t *testing.T) {
	f := newFixture(t, 1500)
	rep, err := f.an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	var idxRecs []Recommendation
	for _, r := range rep.Recommendations {
		if r.Kind == KindIndex {
			idxRecs = append(idxRecs, r)
		}
	}
	if len(idxRecs) == 0 {
		t.Skip("no index recommendations to verify")
	}
	if err := f.an.Apply(rep, KindIndex); err != nil {
		t.Fatal(err)
	}
	// At least one recommended index must show up in a real plan.
	s := f.source.NewSession()
	defer s.Close()
	res := mustExec(t, s, "SELECT name FROM protein WHERE taxonomy_id = 3")
	if res.Plan == nil {
		t.Fatal("no plan")
	}
	used := strings.Join(res.Plan.UsedIndexes, ",")
	if !strings.Contains(used, "ix_protein") {
		t.Errorf("recommended index not used; plan uses %q:\n%s", used, res.Plan.String())
	}
}

func TestApplyAllImprovesWorkload(t *testing.T) {
	f := newFixture(t, 1500)
	rep, err := f.an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	s := f.source.NewSession()
	defer s.Close()

	probe := "SELECT name FROM protein WHERE taxonomy_id = 3"
	before := mustExec(t, s, probe)

	if err := f.an.Apply(rep); err != nil {
		t.Fatal(err)
	}

	after := mustExec(t, s, probe)
	if len(after.Rows) != len(before.Rows) {
		t.Fatalf("apply changed results: %d vs %d rows", len(after.Rows), len(before.Rows))
	}
	if after.Plan.Est.Total() >= before.Plan.Est.Total() {
		t.Errorf("estimated cost did not improve: before %.1f after %.1f",
			before.Plan.Est.Total(), after.Plan.Est.Total())
	}
	// MODIFY recommendations were applied: no heap table with high
	// overflow remains among the NREF tables.
	for _, tbl := range nref.Tables {
		meta := f.source.Catalog().Table(tbl)
		st := f.source.TableState(tbl)
		if meta.Structure == "HEAP" && st.Pages > 10 && st.OverflowPages*10 > st.Pages {
			t.Errorf("table %s still heap with %d/%d overflow pages", tbl, st.OverflowPages, st.Pages)
		}
	}
	// Statistics were collected for flagged tables.
	if f.source.Catalog().Histogram("protein", "taxonomy_id") == nil {
		t.Error("no histogram on protein.taxonomy_id after apply")
	}
}

// TestLocksDiagram provokes one lock wait and then one deadlock between
// two sessions, polling before, between and after on a stepped clock,
// and checks that the diagram marks the wait and the deadlock.
func TestLocksDiagram(t *testing.T) {
	dir := t.TempDir()
	mon := monitor.New(monitor.Config{})
	source, err := engine.Open(engine.Config{Dir: filepath.Join(dir, "src"), Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if err := ima.Register(ima.Sources{DB: source, Mon: mon}); err != nil {
		t.Fatal(err)
	}
	wdb, err := engine.Open(engine.Config{Dir: filepath.Join(dir, "wdb")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { source.Close(); wdb.Close() })
	now := time.Unix(1_000_000, 0)
	d, err := daemon.New(daemon.Config{Source: source, Mon: mon, Target: wdb,
		Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	poll := func() {
		t.Helper()
		now = now.Add(time.Second)
		if err := d.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	// blocked runs sql on s in the background and returns once the
	// statement waits in the lock manager.
	blocked := func(s *engine.Session, sql string) <-chan error {
		t.Helper()
		waiting := source.LockStats().Waiting
		done := make(chan error, 1)
		go func() {
			_, err := s.Exec(sql)
			done <- err
		}()
		deadline := time.Now().Add(5 * time.Second)
		for source.LockStats().Waiting == waiting {
			if time.Now().After(deadline) {
				t.Fatalf("%q never waited for a lock", sql)
			}
			time.Sleep(time.Millisecond)
		}
		return done
	}

	s1, s2 := source.NewSession(), source.NewSession()
	defer s1.Close()
	defer s2.Close()
	mustExec(t, s1, "CREATE TABLE ta (id INTEGER PRIMARY KEY, n INTEGER)")
	mustExec(t, s1, "CREATE TABLE tb (id INTEGER PRIMARY KEY, n INTEGER)")
	mustExec(t, s1, "INSERT INTO ta VALUES (1, 0)")
	mustExec(t, s1, "INSERT INTO tb VALUES (1, 0)")
	poll()

	// One lock wait: s2 queues behind s1's row lock until s1 commits, and
	// then loses first-updater-wins.
	s1.Begin()
	mustExec(t, s1, "UPDATE ta SET n = n + 1 WHERE id = 1")
	done := blocked(s2, "UPDATE ta SET n = n + 1 WHERE id = 1")
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, engine.ErrWriteConflict) {
		t.Fatalf("waiting writer: %v, want a write conflict", err)
	}
	poll()

	// One deadlock: each session holds one row and asks for the other's;
	// s2 closes the cycle and is the victim.
	s1.Begin()
	mustExec(t, s1, "UPDATE ta SET n = n + 1 WHERE id = 1")
	s2.Begin()
	mustExec(t, s2, "UPDATE tb SET n = n + 1 WHERE id = 1")
	done = blocked(s1, "UPDATE tb SET n = n + 1 WHERE id = 1")
	if _, err := s2.Exec("UPDATE ta SET n = n + 1 WHERE id = 1"); !errors.Is(err, lock.ErrDeadlock) {
		t.Fatalf("cycle-closing update: %v, want a deadlock", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	poll()

	an, err := New(Config{Source: source, WorkloadDB: wdb})
	if err != nil {
		t.Fatal(err)
	}
	out, err := an.LocksDiagram()
	if err != nil {
		t.Fatal(err)
	}
	// The marker row follows the time axis.
	lines := strings.Split(out, "\n")
	var markers []string
	for i, l := range lines {
		if strings.Contains(l, "+---") && i+1 < len(lines) {
			markers = strings.Fields(lines[i+1])
		}
	}
	if strings.Join(markers, " ") != "W D" {
		t.Errorf("markers %q, want a W then a D; diagram:\n%s", markers, out)
	}
}

func TestAnalyzeOnEmptyWorkloadDB(t *testing.T) {
	dir := t.TempDir()
	mon := monitor.New(monitor.Config{})
	source, _ := engine.Open(engine.Config{Dir: filepath.Join(dir, "s"), Monitor: mon})
	wdb, _ := engine.Open(engine.Config{Dir: filepath.Join(dir, "w")})
	defer source.Close()
	defer wdb.Close()
	// Schema exists but is empty.
	d, err := daemon.New(daemon.Config{Source: source, Mon: mon, Target: wdb})
	if err != nil {
		t.Fatal(err)
	}
	_ = d
	an, err := New(Config{Source: source, WorkloadDB: wdb})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Recommendations) != 0 || len(rep.Statements) != 0 {
		t.Errorf("expected empty report: %+v", rep)
	}
}

func TestReportRendering(t *testing.T) {
	f := newFixture(t, 1200)
	rep, err := f.an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{
		"Analyzer report:", "statistics collection", "storage structure changes",
		"most expensive statements", "Cost diagram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	empty := (&Report{}).String()
	if !strings.Contains(empty, "no recommendations") {
		t.Errorf("empty report: %s", empty)
	}
}

func TestStatisticsRecommendationsDeduped(t *testing.T) {
	f := newFixture(t, 1500)
	rep, err := f.an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	perTable := map[string]int{}
	for _, r := range rep.Recommendations {
		if r.Kind == KindStatistics {
			perTable[strings.ToLower(r.Table)]++
		}
	}
	for tbl, n := range perTable {
		if n > 1 {
			t.Errorf("table %s has %d statistics recommendations, want 1", tbl, n)
		}
	}
}
