package workloaddb

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/ima"
	"repro/internal/sqltypes"
)

func openDB(t *testing.T) *engine.DB {
	t.Helper()
	db, err := engine.Open(engine.Config{Dir: t.TempDir(), PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestEnsureSchemaIdempotent(t *testing.T) {
	db := openDB(t)
	if err := EnsureSchema(db); err != nil {
		t.Fatal(err)
	}
	if err := EnsureSchema(db); err != nil {
		t.Fatalf("second EnsureSchema: %v", err)
	}
	s := db.NewSession()
	defer s.Close()
	for _, tbl := range AllTables() {
		if _, err := s.Exec("SELECT COUNT(*) FROM " + tbl); err != nil {
			t.Errorf("table %s: %v", tbl, err)
		}
	}
}

func TestPrune(t *testing.T) {
	db := openDB(t)
	if err := EnsureSchema(db); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	now := time.Now()
	old := now.Add(-48 * time.Hour).UnixMicro()
	fresh := now.Add(-time.Hour).UnixMicro()
	for _, ts := range []int64{old, fresh} {
		if _, err := s.Exec(fmt.Sprintf(
			"INSERT INTO %s VALUES (%d, 1, 1, 1, 1, 1, 1, 1.0, 1.0, 1.0, 1, 1, 0, 1)",
			Workload, ts)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	removed, err := Prune(db, 24*time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Errorf("removed = %d, want 1", removed)
	}
	s2 := db.NewSession()
	defer s2.Close()
	res, _ := s2.Exec("SELECT COUNT(*) FROM " + Workload)
	if res.Rows[0][0].I != 1 {
		t.Errorf("surviving rows = %v", res.Rows[0][0])
	}
}

func TestPersistedTextWidthsFitEngineRows(t *testing.T) {
	// The registry's column width is the one truncation bound: every
	// persisted text column must declare one, within the engine's hard
	// row limit, or appends of near-limit text fail at insert time.
	for _, r := range ima.Persisted() {
		for _, c := range r.Columns {
			if c.Type != sqltypes.Text || c.Live {
				continue
			}
			if c.Width <= 0 || c.Width > engine.MaxTextBytes {
				t.Errorf("%s.%s: width %d, want 1..%d", r.StoreName(), c.Name, c.Width, engine.MaxTextBytes)
			}
		}
	}
}

func TestStatisticsSchemaHasDaemonCounters(t *testing.T) {
	db := openDB(t)
	if err := EnsureSchema(db); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	defer s.Close()
	res, err := s.Exec("SELECT poll_errors, retries, carryover_depth, alert_errors FROM " + Statistics)
	if err != nil {
		t.Fatalf("daemon counters missing from %s: %v", Statistics, err)
	}
	_ = res
}
