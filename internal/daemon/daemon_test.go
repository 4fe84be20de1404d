package daemon

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/engine"
	"repro/internal/ima"
	"repro/internal/monitor"
	"repro/internal/sqlparser"
	"repro/internal/workloaddb"
)

type fixture struct {
	source *engine.DB
	target *engine.DB
	mon    *monitor.Monitor
	sess   *engine.Session
}

func newFixture(t *testing.T) *fixture { t.Helper(); return newFixtureCap(t, 0) }

// newFixtureCap is newFixture with a statement table of capacity
// entries (0: the default).
func newFixtureCap(t *testing.T, capacity int) *fixture {
	t.Helper()
	dir := t.TempDir()
	mon := monitor.New(monitor.Config{StatementCapacity: capacity})
	source, err := engine.Open(engine.Config{Dir: filepath.Join(dir, "src"), PoolPages: 256, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if err := ima.Register(ima.Sources{DB: source, Mon: mon}); err != nil {
		t.Fatal(err)
	}
	target, err := engine.Open(engine.Config{Dir: filepath.Join(dir, "wdb"), PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { source.Close(); target.Close() })
	s := source.NewSession()
	t.Cleanup(s.Close)
	exec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(16))")
	for i := 0; i < 10; i++ {
		exec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, 'x%d')", i, i))
	}
	return &fixture{source: source, target: target, mon: mon, sess: s}
}

// landAll lands every workload sum the monitor holds, as a poll whose
// append succeeds does, so what runs next is all a test counts.
func landAll(mon *monitor.Monitor) { mon.Landed(mon.SnapshotWorkload()) }

func exec(t *testing.T, s *engine.Session, sql string) *engine.Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestPollPersistsWorkload(t *testing.T) {
	f := newFixture(t)
	d, err := New(Config{Source: f.source, Mon: f.mon, Target: f.target})
	if err != nil {
		t.Fatal(err)
	}
	exec(t, f.sess, "SELECT v FROM t WHERE id = 1")
	exec(t, f.sess, "SELECT v FROM t WHERE id = 2")
	if err := d.Poll(); err != nil {
		t.Fatal(err)
	}

	ws := f.target.NewSession()
	defer ws.Close()
	res := exec(t, ws, fmt.Sprintf("SELECT COUNT(*), SUM(executions) FROM %s WHERE hash = %d",
		workloaddb.Workload, int64(sqlparser.DigestOf("SELECT v FROM t WHERE id = 1"))))
	if res.Rows[0][0].I != 1 || res.Rows[0][1].I != 2 {
		t.Errorf("the shape's workload rows, executions = %v, want one row of two executions", res.Rows[0])
	}
	res = exec(t, ws, "SELECT COUNT(*) FROM "+workloaddb.Statements)
	if res.Rows[0][0].I == 0 {
		t.Error("statements not persisted")
	}
	res = exec(t, ws, "SELECT COUNT(*) FROM "+workloaddb.Statistics)
	if res.Rows[0][0].I != 1 {
		t.Errorf("statistics rows = %v", res.Rows[0][0])
	}
	res = exec(t, ws, "SELECT COUNT(*) FROM "+workloaddb.Tables+" WHERE table_name = 't'")
	if res.Rows[0][0].I != 1 {
		t.Errorf("tables rows = %v", res.Rows[0][0])
	}
	if st := d.Stats(); st.Polls != 1 || st.RowsAppended == 0 {
		t.Errorf("daemon stats: %+v", st)
	}
}

func TestDrainAvoidsDuplicateWorkload(t *testing.T) {
	f := newFixture(t)
	d, _ := New(Config{Source: f.source, Mon: f.mon, Target: f.target})
	exec(t, f.sess, "SELECT v FROM t WHERE id = 1")
	if err := d.Poll(); err != nil {
		t.Fatal(err)
	}
	if err := d.Poll(); err != nil { // no new statements in between
		t.Fatal(err)
	}
	ws := f.target.NewSession()
	defer ws.Close()
	res := exec(t, ws, fmt.Sprintf(
		"SELECT SUM(executions) FROM %s WHERE hash = %d",
		workloaddb.Workload, int64(sqlparser.DigestOf("SELECT v FROM t WHERE id = 1"))))
	if res.Rows[0][0].I != 1 {
		t.Errorf("execution stored %v times across polls", res.Rows[0][0])
	}
}

func TestReferencesNotDuplicated(t *testing.T) {
	f := newFixture(t)
	d, _ := New(Config{Source: f.source, Mon: f.mon, Target: f.target})
	exec(t, f.sess, "SELECT v FROM t WHERE id = 1")
	d.Poll()
	exec(t, f.sess, "SELECT v FROM t WHERE id = 1")
	d.Poll()
	ws := f.target.NewSession()
	defer ws.Close()
	// One reference row per (statement, object), not per poll.
	hash := int64(sqlparser.DigestOf("SELECT v FROM t WHERE id = 1"))
	res := exec(t, ws, fmt.Sprintf(
		"SELECT COUNT(*) FROM %s WHERE obj_type = 'table' AND obj_name = 't' AND hash = %d",
		workloaddb.References, hash))
	if res.Rows[0][0].I != 1 {
		t.Errorf("reference rows = %v, want 1", res.Rows[0][0])
	}
}

func TestRetentionPruning(t *testing.T) {
	f := newFixture(t)
	clock := time.Now()
	d, err := New(Config{
		Source: f.source, Mon: f.mon, Target: f.target,
		Retention: time.Hour,
		Now:       func() time.Time { return clock },
	})
	if err != nil {
		t.Fatal(err)
	}
	exec(t, f.sess, "SELECT v FROM t WHERE id = 1")
	d.Poll()

	ws := f.target.NewSession()
	before := exec(t, ws, "SELECT COUNT(*) FROM "+workloaddb.Statistics).Rows[0][0].I
	ws.Close()
	if before == 0 {
		t.Fatal("nothing persisted")
	}

	// Jump the clock past retention; the next poll prunes.
	clock = clock.Add(3 * time.Hour)
	if err := d.Poll(); err != nil {
		t.Fatal(err)
	}
	ws = f.target.NewSession()
	defer ws.Close()
	res := exec(t, ws, "SELECT MIN(ts_us) FROM "+workloaddb.Statistics)
	min := res.Rows[0][0].I
	cutoff := clock.Add(-time.Hour).UnixMicro()
	if min < cutoff {
		t.Errorf("rows older than retention survive: min=%d cutoff=%d", min, cutoff)
	}
	if d.Stats().RowsPruned == 0 {
		t.Error("nothing pruned")
	}
}

func TestAlerts(t *testing.T) {
	f := newFixture(t)
	var events []Event
	d, err := New(Config{
		Source: f.source, Mon: f.mon, Target: f.target,
		Alerts: []Alert{
			{
				Name:      "too-many-statements",
				Query:     "SELECT statements FROM ima_statistics",
				Op:        ">",
				Threshold: 0,
				Action:    func(e Event) { events = append(events, e) },
			},
			{
				Name:      "never-fires",
				Query:     "SELECT statements FROM ima_statistics",
				Op:        "<",
				Threshold: -1,
				Action:    func(e Event) { t.Error("must not fire") },
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	exec(t, f.sess, "SELECT COUNT(*) FROM t")
	if err := d.Poll(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Alert != "too-many-statements" || events[0].Value <= 0 {
		t.Errorf("events: %+v", events)
	}
	if d.Stats().AlertsFired != 1 {
		t.Errorf("AlertsFired = %d", d.Stats().AlertsFired)
	}
}

func TestAlertErrorsAreIsolated(t *testing.T) {
	// One broken alert query and one bad operator must not abort the
	// poll or stop the healthy alert that follows them.
	f := newFixture(t)
	var fired int
	var logged []string
	d, _ := New(Config{
		Source: f.source, Mon: f.mon, Target: f.target,
		Logf: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
		Alerts: []Alert{
			{Name: "bad-query", Query: "SELECT nope FROM missing", Op: ">", Threshold: 0},
			{Name: "bad-op", Query: "SELECT statements FROM ima_statistics", Op: "!!", Threshold: 0},
			{
				Name: "healthy", Query: "SELECT statements FROM ima_statistics",
				Op: ">=", Threshold: 0,
				Action: func(Event) { fired++ },
			},
		},
	})
	exec(t, f.sess, "SELECT COUNT(*) FROM t")
	if err := d.Poll(); err != nil {
		t.Fatalf("alert failures aborted the poll: %v", err)
	}
	st := d.Stats()
	if st.AlertErrors != 2 {
		t.Errorf("AlertErrors = %d, want 2", st.AlertErrors)
	}
	if st.PollErrors != 0 {
		t.Errorf("PollErrors = %d, want 0 (alert failures are not poll failures)", st.PollErrors)
	}
	if fired != 1 {
		t.Errorf("healthy alert fired %d times, want 1", fired)
	}
	if len(logged) != 2 {
		t.Errorf("logged %d alert failures, want 2: %q", len(logged), logged)
	}
}

func TestStatsLastPollZeroBeforeFirstPoll(t *testing.T) {
	f := newFixture(t)
	d, _ := New(Config{Source: f.source, Mon: f.mon, Target: f.target})
	if got := d.Stats().LastPoll; !got.IsZero() {
		t.Errorf("LastPoll before any poll = %v, want the zero time", got)
	}
	if err := d.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().LastPoll; got.IsZero() || time.Since(got) > time.Minute {
		t.Errorf("LastPoll after a poll = %v", got)
	}
}

func TestReferencesDedupAcrossEviction(t *testing.T) {
	// End to end: with a small cap, a reference seen on every poll is
	// still written only once as long as it stays within the window.
	f := newFixture(t)
	d, _ := New(Config{Source: f.source, Mon: f.mon, Target: f.target})
	for i, rel := range ima.Persisted() {
		d.cursors[i] = rel.NewCursor(64)
	}
	for i := 0; i < 3; i++ {
		exec(t, f.sess, "SELECT v FROM t WHERE id = 1")
		if err := d.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	ws := f.target.NewSession()
	defer ws.Close()
	hash := int64(sqlparser.DigestOf("SELECT v FROM t WHERE id = 1"))
	res := exec(t, ws, fmt.Sprintf(
		"SELECT COUNT(*) FROM %s WHERE obj_type = 'table' AND obj_name = 't' AND hash = %d",
		workloaddb.References, hash))
	if res.Rows[0][0].I != 1 {
		t.Errorf("reference rows = %v, want 1", res.Rows[0][0])
	}
}

func TestStatementTextTruncatedOnRuneBoundary(t *testing.T) {
	f := newFixture(t)
	d, _ := New(Config{Source: f.source, Mon: f.mon, Target: f.target})
	// Build a statement whose text exceeds the 512-byte bound with a
	// 2-byte rune straddling the cut point.
	pad := strings.Repeat("é", 400) // 800 bytes of 2-byte runes
	sql := "SELECT v FROM t WHERE v = '" + pad + "'"
	if len(sql) <= engine.MaxTextBytes {
		t.Fatalf("test statement too short: %d bytes", len(sql))
	}
	exec(t, f.sess, sql)
	if err := d.Poll(); err != nil {
		t.Fatal(err)
	}
	ws := f.target.NewSession()
	defer ws.Close()
	res := exec(t, ws, fmt.Sprintf("SELECT query_text FROM %s WHERE hash = %d",
		workloaddb.Statements, int64(sqlparser.DigestOf(sql))))
	if len(res.Rows) == 0 {
		t.Fatal("long statement not persisted")
	}
	text := res.Rows[0][0].S
	if len(text) > engine.MaxTextBytes {
		t.Errorf("stored text is %d bytes, max %d", len(text), engine.MaxTextBytes)
	}
	if !utf8.ValidString(text) {
		t.Errorf("stored text is invalid UTF-8 (rune split at the cut): %q", text[len(text)-4:])
	}
	if !strings.HasPrefix(sql, text) {
		t.Error("stored text is not a prefix of the statement")
	}
}

func TestRunLoop(t *testing.T) {
	f := newFixture(t)
	d, _ := New(Config{
		Source: f.source, Mon: f.mon, Target: f.target,
		Interval: 10 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	exec(t, f.sess, "SELECT COUNT(*) FROM t")
	err := d.Run(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("Run returned %v", err)
	}
	if d.Stats().Polls < 2 {
		t.Errorf("polls = %d", d.Stats().Polls)
	}
}

// TestPollPersistsActions: audit rows from the Actions hook land in
// ws_actions exactly once — the Seq watermark prevents re-inserting
// rows already persisted, and apply_failures flows into ws_statistics.
func TestPollPersistsActions(t *testing.T) {
	f := newFixture(t)
	rows := []ima.ActionRow{
		{Seq: 1, ActionID: 1, Kind: "create-index", Target: "t", SQL: "CREATE INDEX ix ON t (v)", State: "proposed", AtUs: 100},
		{Seq: 2, ActionID: 1, Kind: "create-index", Target: "t", SQL: "CREATE INDEX ix ON t (v)", State: "accepted", Baseline: 50, Observed: 55, DeltaPct: 10, Samples: 40, AtUs: 200, Detail: "within threshold"},
	}
	var failures int64 = 3
	d, err := New(Config{
		Source: f.source, Mon: f.mon, Target: f.target,
		Actions:       func() []ima.ActionRow { return rows },
		ApplyFailures: func() int64 { return failures },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Poll(); err != nil {
		t.Fatal(err)
	}
	// Second poll with one new row: only the new row is appended.
	rows = append(rows, ima.ActionRow{Seq: 3, ActionID: 2, Kind: "enlarge-buffer-pool", Target: "bufferpool", State: "proposed", AtUs: 300})
	if err := d.Poll(); err != nil {
		t.Fatal(err)
	}

	ts := f.target.NewSession()
	defer ts.Close()
	res := exec(t, ts, "SELECT seq, state, detail FROM "+workloaddb.Actions)
	if len(res.Rows) != 3 {
		t.Fatalf("ws_actions has %d rows, want 3 (watermark must prevent duplicates)", len(res.Rows))
	}
	seen := map[int64]string{}
	for _, r := range res.Rows {
		seen[r[0].I] = r[1].S
	}
	if seen[1] != "proposed" || seen[2] != "accepted" || seen[3] != "proposed" {
		t.Fatalf("unexpected ws_actions contents: %v", seen)
	}
	sres := exec(t, ts, "SELECT apply_failures FROM "+workloaddb.Statistics)
	if len(sres.Rows) == 0 || sres.Rows[len(sres.Rows)-1][0].I != failures {
		t.Fatalf("apply_failures not persisted in ws_statistics")
	}
}
