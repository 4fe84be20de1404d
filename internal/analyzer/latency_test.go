package analyzer

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/ima"
	"repro/internal/monitor"
)

// latencyFixture is smaller than the advisor fixture: just a monitored
// source, a workload DB and a daemon, so interval sample counts stay
// exactly predictable.
func latencyFixture(t *testing.T) (*engine.Session, *monitor.Monitor, *daemon.Daemon, *Analyzer) {
	t.Helper()
	dir := t.TempDir()
	mon := monitor.New(monitor.Config{})
	source, err := engine.Open(engine.Config{Dir: filepath.Join(dir, "src"), PoolPages: 256, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if err := ima.Register(ima.Sources{DB: source, Mon: mon}); err != nil {
		t.Fatal(err)
	}
	wdb, err := engine.Open(engine.Config{Dir: filepath.Join(dir, "wdb"), PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { source.Close(); wdb.Close() })
	d, err := daemon.New(daemon.Config{Source: source, Mon: mon, Target: wdb})
	if err != nil {
		t.Fatal(err)
	}
	an, err := New(Config{Source: source, WorkloadDB: wdb})
	if err != nil {
		t.Fatal(err)
	}
	s := source.NewSession()
	t.Cleanup(s.Close)
	return s, mon, d, an
}

func TestLatencyQuantilesPerInterval(t *testing.T) {
	s, mon, d, an := latencyFixture(t)
	mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY)")
	for i := 0; i < 9; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	first := mon.TotalStatements()
	if err := d.Poll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustExec(t, s, fmt.Sprintf("SELECT id FROM t WHERE id = %d", i))
	}
	second := mon.TotalStatements() - first
	if err := d.Poll(); err != nil {
		t.Fatal(err)
	}

	points, err := an.LatencyQuantiles("wall", 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2 (one per poll): %+v", len(points), points)
	}
	if points[0].Samples != first {
		t.Errorf("interval 1 samples = %d, want %d", points[0].Samples, first)
	}
	if points[1].Samples != second {
		t.Errorf("interval 2 samples = %d, want %d", points[1].Samples, second)
	}
	for i, p := range points {
		if p.Q <= 0 {
			t.Errorf("point %d: quantile %v, want > 0", i, p.Q)
		}
		if p.At.IsZero() {
			t.Errorf("point %d: zero timestamp", i)
		}
	}
	if !points[1].At.After(points[0].At) {
		t.Errorf("points not time-ordered: %v then %v", points[0].At, points[1].At)
	}

	// The opt scope is persisted alongside wall.
	optPoints, err := an.LatencyQuantiles("opt", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(optPoints) == 0 {
		t.Error("no opt-scope points")
	}
}

func TestLatencyQuantilesValidation(t *testing.T) {
	s, _, d, an := latencyFixture(t)
	mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY)")
	if err := d.Poll(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0, -1, 1.5} {
		if _, err := an.LatencyQuantiles("wall", q); err == nil {
			t.Errorf("quantile %v accepted", q)
		}
	}
	// Unknown scopes yield no points, not an error.
	points, err := an.LatencyQuantiles("nope", 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 0 {
		t.Errorf("unknown scope returned %d points", len(points))
	}
}

// TestPollIdleIntervalSkipped: an interval with no executions adds no
// point (the cumulative counts did not move).
func TestPollIdleIntervalSkipped(t *testing.T) {
	s, _, d, an := latencyFixture(t)
	mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY)")
	if err := d.Poll(); err != nil {
		t.Fatal(err)
	}
	if err := d.Poll(); err != nil { // nothing ran on source in between
		t.Fatal(err)
	}
	points, err := an.LatencyQuantiles("wall", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("got %d points, want 1 (idle interval skipped): %+v", len(points), points)
	}
}
