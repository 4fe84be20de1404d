package analyzer

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/workloaddb"
)

// newStatsOnlyFixture builds an analyzer over a workload DB holding
// only a synthetic ws_statistics series (no statements), so the
// buffer-pool rule is judged in isolation.
func newStatsOnlyFixture(t *testing.T) (*Analyzer, *engine.DB) {
	t.Helper()
	dir := t.TempDir()
	source, err := engine.Open(engine.Config{Dir: filepath.Join(dir, "src"), PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	wdb, err := engine.Open(engine.Config{Dir: filepath.Join(dir, "wdb"), PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { source.Close(); wdb.Close() })
	if err := workloaddb.EnsureSchema(wdb); err != nil {
		t.Fatal(err)
	}
	an, err := New(Config{Source: source, WorkloadDB: wdb})
	if err != nil {
		t.Fatal(err)
	}
	return an, wdb
}

// statSample is one synthetic ws_statistics poll: cumulative hit/miss/
// eviction/pin-wait counters.
type statSample struct {
	hits, misses, evictions, pinWaits int64
}

func insertStatSeries(t *testing.T, wdb *engine.DB, samples []statSample) {
	t.Helper()
	s := wdb.NewSession()
	defer s.Close()
	base := time.Now()
	for i, sm := range samples {
		ts := base.Add(time.Duration(i) * time.Minute).UnixMicro()
		// Columns: ts_us, current_sessions, peak_sessions, statements,
		// locks_held, lock_waits, deadlocks, cache_hits, cache_misses,
		// disk_reads, disk_writes, db_bytes, poll_errors, retries,
		// carryover_depth, alert_errors, cache_evictions, cache_resident,
		// pin_waits, wal_bytes, wal_fsyncs, redo_records, redo_nanos.
		if _, err := s.Exec(fmt.Sprintf(
			"INSERT INTO %s VALUES (%d, 1, 1, %d, 0, 0, 0, %d, %d, %d, 0, 0, 0, 0, 0, 0, %d, 64, %d, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)",
			workloaddb.Statistics, ts, int64(i)*10,
			sm.hits, sm.misses, sm.misses, sm.evictions, sm.pinWaits)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBufferPoolRuleFires(t *testing.T) {
	an, wdb := newStatsOnlyFixture(t)
	// Three intervals, each with 1000 requests at a 70% hit ratio and
	// active eviction — a working set that clearly does not fit.
	insertStatSeries(t, wdb, []statSample{
		{hits: 0, misses: 0, evictions: 0, pinWaits: 0},
		{hits: 700, misses: 300, evictions: 250, pinWaits: 2},
		{hits: 1400, misses: 600, evictions: 500, pinWaits: 4},
		{hits: 2100, misses: 900, evictions: 750, pinWaits: 4},
	})
	rep, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	var rec *Recommendation
	for i := range rep.Recommendations {
		if rep.Recommendations[i].Kind == KindBufferPool {
			rec = &rep.Recommendations[i]
		}
	}
	if rec == nil {
		t.Fatalf("no %s recommendation; got %+v", KindBufferPool, rep.Recommendations)
	}
	if !strings.Contains(rec.Reason, "hit-ratio") || !strings.Contains(rec.Reason, "pin wait") {
		t.Errorf("reason lacks detail: %q", rec.Reason)
	}
	if rec.Score <= 0 {
		t.Errorf("score = %v, want > 0 (miss volume)", rec.Score)
	}
	if !strings.Contains(rep.String(), "configuration changes (manual)") {
		t.Error("report rendering omits the buffer-pool section")
	}
	// Report-level only: Apply must never execute the pseudo-SQL.
	if err := an.Apply(rep); err != nil {
		t.Errorf("Apply tried to execute the report-level recommendation: %v", err)
	}
}

func TestBufferPoolRuleColdCacheDoesNotFire(t *testing.T) {
	an, wdb := newStatsOnlyFixture(t)
	// Low hit ratio but zero evictions: a cold cache filling up, not
	// pressure.
	insertStatSeries(t, wdb, []statSample{
		{hits: 0, misses: 0},
		{hits: 200, misses: 800},
		{hits: 400, misses: 1600},
	})
	rep, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Recommendations {
		if r.Kind == KindBufferPool {
			t.Fatalf("rule fired on a cold cache: %+v", r)
		}
	}
}

func TestBufferPoolRuleHealthyAndQuietDoNotFire(t *testing.T) {
	an, wdb := newStatsOnlyFixture(t)
	// One healthy interval (97% hits, some evictions) and one below
	// threshold but far too quiet to judge (10 requests).
	insertStatSeries(t, wdb, []statSample{
		{hits: 0, misses: 0, evictions: 0},
		{hits: 970, misses: 30, evictions: 30},
		{hits: 975, misses: 35, evictions: 35},
	})
	rep, err := an.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Recommendations {
		if r.Kind == KindBufferPool {
			t.Fatalf("rule fired on a healthy pool: %+v", r)
		}
	}
}
