package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/sqlparser"
	"repro/internal/workloaddb"
)

// TestAdaptiveMonitoringLoop drives the two-phase layer through the
// integrated system: phase-1 histograms feed the daemon's Flagger,
// the flag enables phase-2 attribution, and the breakdown surfaces
// consistently through ima_flags/ima_waits (SQL), engine_wait_*
// (telemetry) and ws_waits (workload DB) — the satellite parity test
// at the outermost layer.
func TestAdaptiveMonitoringLoop(t *testing.T) {
	sys, err := Open(Options{
		Dir: t.TempDir(),
		// An absolute threshold every statement clears: the first poll
		// after MinSamples executions flags it, no trend history needed.
		Flagger: monitor.FlaggerConfig{MinSamples: 4, P95Threshold: time.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Flagger == nil {
		t.Fatal("System.Flagger not wired")
	}

	s := sys.Session()
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE ev (id INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO ev VALUES (1, 0), (2, 0), (3, 0)"); err != nil {
		t.Fatal(err)
	}
	const q = "UPDATE ev SET v = v + 1 WHERE id = 2"
	for i := 0; i < 8; i++ {
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	}

	// First poll: the Flagger sees 8 samples past the 1 ns threshold.
	if err := sys.Poll(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec("SELECT hash, reason, age_us, samples FROM ima_flags")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("ima_flags rows = %d", len(res.Rows))
	}
	wantHash := int64(sqlparser.DigestOf(q))
	if res.Rows[0][0].I != wantHash || res.Rows[0][1].S != monitor.FlagReasonP95 {
		t.Fatalf("ima_flags row = %v", res.Rows[0])
	}
	if res.Rows[0][2].I < 0 {
		t.Fatalf("negative flag age: %v", res.Rows[0])
	}

	// Phase 2 now active: further executions accumulate a breakdown.
	for i := 0; i < 8; i++ {
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	res, err = s.Exec("SELECT hash, samples, wall_ns, exec_ns, lock_ns, io_ns, fsync_ns, pinwait_ns FROM ima_waits")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != wantHash {
		t.Fatalf("ima_waits rows = %v", res.Rows)
	}
	row := res.Rows[0]
	if row[1].I != 8 {
		t.Fatalf("ima_waits samples = %d, want 8", row[1].I)
	}
	breakdown := row[3].I + row[4].I + row[5].I + row[6].I + row[7].I
	if breakdown <= 0 || breakdown > row[2].I {
		t.Fatalf("breakdown %d outside (0, wall=%d]", breakdown, row[2].I)
	}

	// Parity with the telemetry plane: the engine_wait_* counters must
	// equal the ima_waits sums (one statement flagged, so they are its
	// row verbatim), and the flagged gauge must show it.
	metrics := map[string]float64{}
	for _, m := range sys.Telemetry.Gather() {
		if len(m.Labels) == 0 {
			metrics[m.Name] = m.Value
		}
	}
	for name, want := range map[string]int64{
		"engine_wait_exec_ns_total":    row[3].I,
		"engine_wait_lock_ns_total":    row[4].I,
		"engine_wait_io_ns_total":      row[5].I,
		"engine_wait_fsync_ns_total":   row[6].I,
		"engine_wait_pinwait_ns_total": row[7].I,
	} {
		if got := int64(metrics[name]); got != want {
			t.Errorf("%s = %d, metrics want %d", name, got, want)
		}
	}
	if metrics["engine_flagged_statements"] != 1 {
		t.Errorf("engine_flagged_statements = %v", metrics["engine_flagged_statements"])
	}
	if metrics["monitor_overhead_phase2_seconds_total"] <= 0 {
		t.Error("phase-2 overhead not accounted")
	}

	// Second poll persists the breakdown into ws_waits.
	if err := sys.Poll(); err != nil {
		t.Fatal(err)
	}
	ws := sys.WorkloadDB.NewSession()
	defer ws.Close()
	res, err = ws.Exec(fmt.Sprintf(
		"SELECT samples, wall_ns FROM %s WHERE hash = %d", workloaddb.Waits, wantHash))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 8 {
		t.Fatalf("ws_waits rows = %v", res.Rows)
	}

	// Manual unflag through the monitor drops it from ima_flags and the
	// gauge on the next scrape.
	if !sys.Monitor.Unflag(q) {
		t.Fatal("Unflag failed")
	}
	res, err = s.Exec("SELECT hash FROM ima_flags")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("ima_flags not empty after unflag: %v", res.Rows)
	}
}
