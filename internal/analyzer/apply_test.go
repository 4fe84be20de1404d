package analyzer

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/monitor"
)

// applyFixture is a minimal source+workload DB pair for driving the
// Applier with synthetic latency series.
type applyFixture struct {
	source *engine.DB
	an     *Analyzer
}

func newApplyFixture(t *testing.T) *applyFixture {
	t.Helper()
	dir := t.TempDir()
	source, err := engine.Open(engine.Config{Dir: filepath.Join(dir, "src"), PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	wdb, err := engine.Open(engine.Config{Dir: filepath.Join(dir, "wdb"), PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { source.Close(); wdb.Close() })
	s := source.NewSession()
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE ct (id INTEGER PRIMARY KEY, a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO ct VALUES (%d, %d)", i, i%7)); err != nil {
			t.Fatal(err)
		}
	}
	an, err := New(Config{Source: source, WorkloadDB: wdb})
	if err != nil {
		t.Fatal(err)
	}
	return &applyFixture{source: source, an: an}
}

// counts returns a cumulative histogram with n samples in bucket b.
func counts(b int, n int64) monitor.LatencyCounts {
	var c monitor.LatencyCounts
	c[b] = n
	return c
}

// addCounts sums cumulative histograms.
func addCounts(a, b monitor.LatencyCounts) monitor.LatencyCounts {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// latencySeries replays a fixed sequence of cumulative snapshots; after
// the sequence is exhausted the last snapshot repeats.
func latencySeries(seq ...monitor.LatencyCounts) func() monitor.LatencyCounts {
	i := 0
	return func() monitor.LatencyCounts {
		c := seq[i]
		if i < len(seq)-1 {
			i++
		}
		return c
	}
}

const (
	fastBucket = 8  // baseline latency bucket
	slowBucket = 30 // far slower bucket: an unambiguous regression
)

// applierFor builds an Applier with a synthetic latency series and no
// real sleeping. The observe windows consume the series in order:
// baseline(before, after), canary(before, after).
func applierFor(f *applyFixture, seq ...monitor.LatencyCounts) *Applier {
	return f.an.NewApplier(ApplyConfig{
		Latency: latencySeries(seq...),
		Sleep:   func(time.Duration) {},
	})
}

// steadySeries is a four-snapshot series whose baseline and canary
// windows both show 100 fast executions: no regression.
func steadySeries() []monitor.LatencyCounts {
	c0 := counts(fastBucket, 0)
	c1 := counts(fastBucket, 100)
	c2 := c1
	c3 := addCounts(c2, counts(fastBucket, 100))
	return []monitor.LatencyCounts{c0, c1, c2, c3}
}

// regressingSeries shows 100 fast executions in the baseline window and
// 100 slow ones in the canary window.
func regressingSeries() []monitor.LatencyCounts {
	c0 := counts(fastBucket, 0)
	c1 := counts(fastBucket, 100)
	c2 := c1
	c3 := addCounts(c2, counts(slowBucket, 100))
	return []monitor.LatencyCounts{c0, c1, c2, c3}
}

func indexRec() Recommendation {
	return Recommendation{
		Kind:   KindIndex,
		Table:  "ct",
		SQL:    "CREATE INDEX ix_ct_a ON ct (a)",
		Reason: "test",
	}
}

// lastStateOf returns the final state row of the given action kind.
func lastStateOf(ap *Applier, kind Kind) (state, detail string) {
	for _, r := range ap.ActionRows() {
		if r.Kind == string(kind) {
			state, detail = r.State, r.Detail
		}
	}
	return state, detail
}

func TestApplierAcceptsIndexWhenCanaryIsClean(t *testing.T) {
	f := newApplyFixture(t)
	ap := applierFor(f, steadySeries()...)
	rep := &Report{Recommendations: []Recommendation{indexRec()}}
	if err := ap.ApplyOnline(rep); err != nil {
		t.Fatal(err)
	}
	if f.source.Catalog().Index("ix_ct_a") == nil {
		t.Fatal("accepted index is not in the catalog")
	}
	state, _ := lastStateOf(ap, KindIndex)
	if state != string(StateAccepted) {
		t.Fatalf("final state %q, want accepted", state)
	}
	accepted, rolledBack, failed := ap.Stats()
	if accepted != 1 || rolledBack != 0 || failed != 0 {
		t.Fatalf("stats accepted=%d rolledBack=%d failed=%d", accepted, rolledBack, failed)
	}
	// The audit trail walks the full state machine with monotone Seq.
	var states []string
	prevSeq := int64(0)
	for _, r := range ap.ActionRows() {
		if r.Seq <= prevSeq {
			t.Fatalf("Seq not monotone: %d after %d", r.Seq, prevSeq)
		}
		prevSeq = r.Seq
		states = append(states, r.State)
	}
	want := []string{"proposed", "applying", "canary", "accepted"}
	if strings.Join(states, ",") != strings.Join(want, ",") {
		t.Fatalf("state sequence %v, want %v", states, want)
	}
	// The executed SQL is the recommendation's, as written.
	rows := ap.ActionRows()
	if got := rows[len(rows)-1].SQL; got != indexRec().SQL {
		t.Fatalf("index apply ran %q, want %q", got, indexRec().SQL)
	}
}

func TestApplierRollsBackIndexOnRegression(t *testing.T) {
	f := newApplyFixture(t)
	ap := applierFor(f, regressingSeries()...)
	rep := &Report{Recommendations: []Recommendation{indexRec()}}
	if err := ap.ApplyOnline(rep); err != nil {
		t.Fatal(err)
	}
	if f.source.Catalog().Index("ix_ct_a") != nil {
		t.Fatal("regressing index was not dropped")
	}
	state, detail := lastStateOf(ap, KindIndex)
	if state != string(StateRolledBack) {
		t.Fatalf("final state %q (%s), want rolled-back", state, detail)
	}
	if _, rolledBack, _ := ap.Stats(); rolledBack != 1 {
		t.Fatalf("rolledBack=%d, want 1", rolledBack)
	}
}

func TestApplierBufferPoolResizeAndRollback(t *testing.T) {
	f := newApplyFixture(t)
	before := f.source.PoolCapacity()
	rec := Recommendation{Kind: KindBufferPool, SQL: "-- enlarge", Reason: "low hit ratio"}

	ap := applierFor(f, steadySeries()...)
	if err := ap.ApplyOnline(&Report{Recommendations: []Recommendation{rec}}); err != nil {
		t.Fatal(err)
	}
	grown := f.source.PoolCapacity()
	if grown <= before {
		t.Fatalf("pool did not grow: %d -> %d", before, grown)
	}

	ap2 := applierFor(f, regressingSeries()...)
	if err := ap2.ApplyOnline(&Report{Recommendations: []Recommendation{rec}}); err != nil {
		t.Fatal(err)
	}
	if got := f.source.PoolCapacity(); got != grown {
		t.Fatalf("rollback did not restore capacity: %d, want %d", got, grown)
	}
	state, _ := lastStateOf(ap2, KindBufferPool)
	if state != string(StateRolledBack) {
		t.Fatalf("final state %q, want rolled-back", state)
	}
}

func TestApplierAcceptsOnInsufficientSamples(t *testing.T) {
	f := newApplyFixture(t)
	// Only 3 executions per window, below minSamples (20): the regression
	// signal is noise, so the action stands.
	c0 := counts(fastBucket, 0)
	c1 := counts(fastBucket, 3)
	c3 := addCounts(c1, counts(slowBucket, 3))
	ap := applierFor(f, c0, c1, c1, c3)
	if err := ap.ApplyOnline(&Report{Recommendations: []Recommendation{indexRec()}}); err != nil {
		t.Fatal(err)
	}
	state, detail := lastStateOf(ap, KindIndex)
	if state != string(StateAccepted) {
		t.Fatalf("final state %q, want accepted", state)
	}
	if !strings.Contains(detail, "insufficient") {
		t.Fatalf("detail %q does not explain the insufficient evidence", detail)
	}
}

func TestApplierContinuesPastFailures(t *testing.T) {
	f := newApplyFixture(t)
	bad := Recommendation{Kind: KindIndex, Table: "nosuch", SQL: "CREATE INDEX ix_no ON nosuch (a)"}
	series := append(steadySeries(), steadySeries()...)
	ap := applierFor(f, series...)
	rep := &Report{Recommendations: []Recommendation{bad, indexRec()}}
	err := ap.ApplyOnline(rep)
	if err == nil {
		t.Fatal("failing recommendation did not surface an error")
	}
	// The failure did not stop the good recommendation.
	if f.source.Catalog().Index("ix_ct_a") == nil {
		t.Fatal("later recommendation was not applied after an earlier failure")
	}
	if _, _, failed := ap.Stats(); failed != 1 {
		t.Fatalf("failed=%d, want 1", failed)
	}
	if f.an.ApplyFailures() != 1 {
		t.Fatalf("ApplyFailures()=%d, want 1", f.an.ApplyFailures())
	}
	state, _ := lastStateOf(ap, KindIndex)
	if state != string(StateAccepted) {
		t.Fatalf("good action final state %q, want accepted", state)
	}
}

func TestApplyContinuesPastFailures(t *testing.T) {
	// The plain (non-canary) Apply path: same continue-past-failure
	// contract, same counter.
	f := newApplyFixture(t)
	rep := &Report{Recommendations: []Recommendation{
		{Kind: KindIndex, Table: "nosuch", SQL: "CREATE INDEX ix_no ON nosuch (a)"},
		indexRec(),
	}}
	err := f.an.Apply(rep)
	if err == nil {
		t.Fatal("failing recommendation did not surface an error")
	}
	if f.source.Catalog().Index("ix_ct_a") == nil {
		t.Fatal("later recommendation was not applied after an earlier failure")
	}
	if f.an.ApplyFailures() != 1 {
		t.Fatalf("ApplyFailures()=%d, want 1", f.an.ApplyFailures())
	}
}
