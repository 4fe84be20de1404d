package daemon

// Registry-driven tests: the daemon's copy is derived from the ima
// relation registry, so these walk the registry instead of naming
// relations.

import (
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ima"
	"repro/internal/monitor"
	"repro/internal/sqltypes"
	"repro/internal/workloaddb"
)

func rowStrings(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestPersistedParity: for every persisted relation, one poll leaves in
// ws_<name> exactly ima_<name> put through the column mask and the
// persist rule — no second definition to drift from.
func TestPersistedParity(t *testing.T) {
	f := newFixture(t)
	actions := []ima.ActionRow{
		{Seq: 1, ActionID: 1, Kind: "create-index", Target: "t", SQL: "CREATE INDEX ix ON t (v) ONLINE", State: "proposed", AtUs: 100},
		{Seq: 2, ActionID: 1, Kind: "create-index", Target: "t", SQL: "CREATE INDEX ix ON t (v) ONLINE", State: "accepted", DeltaPct: 2.5, Samples: 9, AtUs: 200, Detail: strings.Repeat("é", 400)},
	}
	d, err := New(Config{
		Source: f.source, Mon: f.mon, Target: f.target,
		Actions:       func() []ima.ActionRow { return actions },
		ApplyFailures: func() int64 { return 2 },
		DisableVacuum: true, // keeps the statistics reading still across the poll
	})
	if err != nil {
		t.Fatal(err)
	}
	// Something for every rule: repeated and over-long statements, an
	// index used and one unused, a flagged statement with samples.
	exec(t, f.sess, "CREATE INDEX ix_v ON t (v)")
	const q = "SELECT v FROM t WHERE id = 3"
	f.mon.Flag(q, monitor.FlagReasonManual, true, 0)
	for i := 0; i < 3; i++ {
		exec(t, f.sess, q)
	}
	exec(t, f.sess, "SELECT COUNT(*) FROM t WHERE v = '"+strings.Repeat("x", 600)+"'")
	h := f.mon.StartStatement("SELECT v FROM t WHERE v = 'x1'")
	h.Parsed("SELECT", []string{"t"})
	h.Optimized(1, 1, 1, nil, []string{"ix_v", "t.primary", "dropped_ix"}, 0)
	h.Finish(1, 0, 1, nil)

	// What a consumer that has persisted nothing yet must pick, read
	// before the poll (which lands the workload sums).
	now := time.Now()
	want := map[string][]string{}
	for _, rel := range ima.Persisted() {
		rows, _ := rel.NewCursor(DefaultRefCacheCap).Select(&d.src, now)
		want[rel.Name] = rowStrings(rows)
	}
	if err := d.Poll(); err != nil {
		t.Fatal(err)
	}

	ws := f.target.NewSession()
	defer ws.Close()
	for _, rel := range ima.Persisted() {
		res := exec(t, ws, "SELECT * FROM "+rel.StoreName())
		var newest int64
		for _, r := range res.Rows {
			newest = max(newest, r[0].I)
		}
		var got []sqltypes.Row
		for _, r := range res.Rows {
			if r[0].I == newest {
				got = append(got, r[1:])
			}
		}
		if g, w := rowStrings(got), want[rel.Name]; strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Errorf("%s differs from %s through mask and rule:\n got %v\nwant %v",
				rel.StoreName(), rel.LiveName(), g, w)
		}
		if len(got) == 0 {
			t.Errorf("%s: the fixture persisted no row, parity is vacuous", rel.StoreName())
		}
	}
}

// TestOneEntryRelation: a relation registered with one registry entry
// shows up as virtual table, workload table and persisted rows with no
// other code touched.
func TestOneEntryRelation(t *testing.T) {
	n := len(ima.Relations)
	t.Cleanup(func() { ima.Relations = ima.Relations[:n] })
	ima.Relations = append(ima.Relations[:n:n], ima.Relation{
		Name:    "dummy",
		Columns: []ima.Column{ima.Int("n"), ima.Text("label", 4), ima.Live(ima.Int("secret"))},
		Provider: func(src *ima.Sources) []sqltypes.Row {
			return []sqltypes.Row{
				{sqltypes.NewInt(0), sqltypes.NewText("skipped"), sqltypes.NewInt(7)},
				{sqltypes.NewInt(src.Mon.TotalStatements()), sqltypes.NewText("truncated"), sqltypes.NewInt(7)},
			}
		},
		Persist: ima.Persist{Rule: ima.Nonzero, Cols: []string{"n"}},
	})

	f := newFixture(t) // ima.Register
	d, err := New(Config{Source: f.source, Mon: f.mon, Target: f.target})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Poll(); err != nil {
		t.Fatal(err)
	}

	live := exec(t, f.sess, "SELECT n, label, secret FROM ima_dummy")
	if len(live.Rows) != 2 || live.Rows[1][1].S != "trun" || live.Rows[1][2].I != 7 {
		t.Errorf("ima_dummy rows = %v", live.Rows)
	}
	if got := strings.Join(workloaddb.AllTables(), " "); !strings.Contains(got, "ws_dummy") {
		t.Errorf("AllTables() = %s, want ws_dummy in it", got)
	}
	ws := f.target.NewSession()
	defer ws.Close()
	res := exec(t, ws, "SELECT ts_us, n, label FROM ws_dummy")
	if len(res.Rows) != 1 || res.Rows[0][0].I == 0 || res.Rows[0][1].I == 0 || res.Rows[0][2].S != "trun" {
		t.Errorf("ws_dummy rows = %v, want the one nonzero row, stamped and truncated", res.Rows)
	}
	if _, err := ws.Exec("SELECT secret FROM ws_dummy"); err == nil {
		t.Error("live-only column was persisted")
	}
}
