package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/ima"
	"repro/internal/monitor"
	"repro/internal/stage"
	"repro/internal/workloaddb"
)

var (
	helpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	typeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$`)
	sampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (-?[0-9.e+-]+|NaN|[+-]Inf)$`)
)

// checkPrometheusText validates the exposition line by line: comments
// are well-formed HELP/TYPE pairs, samples parse, and each metric name
// is announced exactly once before its samples.
func checkPrometheusText(t *testing.T, body string) {
	t.Helper()
	announced := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !helpRe.MatchString(line) {
				t.Errorf("line %d: bad HELP: %q", ln+1, line)
			}
			name := strings.Fields(line)[2]
			if announced[name] {
				t.Errorf("line %d: %s announced twice", ln+1, name)
			}
			announced[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			if !typeRe.MatchString(line) {
				t.Errorf("line %d: bad TYPE: %q", ln+1, line)
			}
		case strings.HasPrefix(line, "#"):
			t.Errorf("line %d: unknown comment: %q", ln+1, line)
		default:
			if !sampleRe.MatchString(line) {
				t.Errorf("line %d: bad sample: %q", ln+1, line)
			}
			name := line[:strings.IndexAny(line, "{ ")]
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
				"_bucket"), "_sum"), "_count")
			if !announced[name] && !announced[base] {
				t.Errorf("line %d: sample %s before its HELP", ln+1, name)
			}
		}
	}
}

// metricValue extracts an unlabelled sample's value from the body.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("%s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in body:\n%s", name, body)
	return 0
}

func TestRegistryRegisterAndGather(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("a", func() []Metric {
		return []Metric{{Name: "a_total", Kind: Counter, Value: 1}}
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("a", func() []Metric { return nil }); err == nil {
		t.Fatal("duplicate component accepted")
	}
	if err := reg.Register("b", nil); err == nil {
		t.Fatal("nil source accepted")
	}
	samples := reg.Gather()
	if len(samples) != 1 || samples[0].Component != "a" || samples[0].Name != "a_total" {
		t.Fatalf("samples = %+v", samples)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Register("test", func() []Metric {
		return []Metric{
			{Name: "test_ops_total", Help: "Ops with \"quotes\"\nand newline.", Kind: Counter, Value: 42},
			{Name: "test_ratio", Help: "A gauge.", Kind: Gauge, Value: 0.5},
			{Name: "test_labeled", Kind: Counter, Value: 1,
				Labels: []Label{{Key: "kind", Value: `a"b\c`}}},
			{Name: "test_labeled", Kind: Counter, Value: 2,
				Labels: []Label{{Key: "kind", Value: "plain"}}},
		}
	})
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	checkPrometheusText(t, body)
	for _, want := range []string{
		"# TYPE test_ops_total counter",
		"# TYPE test_ratio gauge",
		"test_ops_total 42",
		"test_ratio 0.5",
		`test_labeled{kind="a\"b\\c"} 1`,
		`test_labeled{kind="plain"} 2`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
}

func TestHistogramMetricsCumulative(t *testing.T) {
	var c monitor.LatencyCounts
	c[3] = 5
	c[10] = 2
	ms := HistogramMetrics("h", "help", &c, 1234)
	var lastCum float64
	for _, m := range ms {
		if m.Name != "h_bucket" {
			continue
		}
		if m.Value < lastCum {
			t.Errorf("bucket values not cumulative: %v after %v", m.Value, lastCum)
		}
		lastCum = m.Value
	}
	last := ms[len(ms)-3:]
	if last[0].Labels[0].Value != "+Inf" || last[0].Value != 7 {
		t.Errorf("+Inf bucket = %+v", last[0])
	}
	if last[1].Name != "h_sum" || last[1].Value != 1234 {
		t.Errorf("sum = %+v", last[1])
	}
	if last[2].Name != "h_count" || last[2].Value != 7 {
		t.Errorf("count = %+v", last[2])
	}
}

func TestServerServesMetricsAndPprof(t *testing.T) {
	mon := monitor.New(monitor.Config{})
	var clk stage.Clock
	for i := 0; i < 5; i++ {
		h := mon.StartStatement(fmt.Sprintf("SELECT %d", i))
		if i < 2 {
			h.Sample(&clk)
		}
		h.Parsed("SELECT", nil)
		h.Finish(1, 0, 1, nil)
	}
	reg := NewRegistry()
	reg.Register("monitor", MonitorSource(mon))

	ts := httptest.NewServer(NewMux(reg))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	checkPrometheusText(t, string(body))
	if got := metricValue(t, string(body), "monitor_statements_total"); got != 5 {
		t.Errorf("monitor_statements_total = %v, want 5", got)
	}
	if got := metricValue(t, string(body), "monitor_statement_wall_ns_count"); got != 5 {
		t.Errorf("histogram count = %v, want 5", got)
	}
	if got := metricValue(t, string(body), "engine_stage_samples_total"); got != 2 {
		t.Errorf("engine_stage_samples_total = %v, want 2", got)
	}
	if got := metricValue(t, string(body), `engine_stage_seconds_total{stage="sensor"}`); got <= 0 {
		t.Errorf("sampled statements spent %v s in their sensor stage", got)
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, r.StatusCode)
		}
	}
}

func TestServeListensAndCloses(t *testing.T) {
	reg := NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Error("server still reachable after Close")
	}
}

// TestMetricsAgreeWithWsStatistics scrapes /metrics after a daemon
// poll and cross-checks the daemon self-observability values against
// the columns the same poll appended to ws_statistics.
func TestMetricsAgreeWithWsStatistics(t *testing.T) {
	dir := t.TempDir()
	mon := monitor.New(monitor.Config{})
	source, err := engine.Open(engine.Config{Dir: filepath.Join(dir, "src"), PoolPages: 256, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	defer source.Close()
	if err := ima.Register(ima.Sources{DB: source, Mon: mon}); err != nil {
		t.Fatal(err)
	}
	target, err := engine.Open(engine.Config{Dir: filepath.Join(dir, "wdb"), PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()

	s := source.NewSession()
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}

	d, err := daemon.New(daemon.Config{Source: source, Mon: mon, Target: target})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Poll(); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	reg.Register("engine", EngineSource(source))
	reg.Register("daemon", DaemonSource(d))
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	checkPrometheusText(t, body)

	ws := target.NewSession()
	defer ws.Close()
	res, err := ws.Exec("SELECT statements, poll_errors, retries, carryover_depth, alert_errors, " +
		"cache_evictions, cache_resident, pin_waits, wal_bytes, wal_fsyncs, redo_records, redo_nanos FROM " +
		workloaddb.Statistics + " ORDER BY ts_us DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("ws_statistics rows = %d, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	checks := []struct {
		metric string
		col    string
		want   int64
	}{
		{"engine_statements_total", "statements", row[0].I},
		{"daemon_poll_errors_total", "poll_errors", row[1].I},
		{"daemon_retries_total", "retries", row[2].I},
		{"daemon_carryover_depth", "carryover_depth", row[3].I},
		{"daemon_alert_errors_total", "alert_errors", row[4].I},
		{"engine_cache_evictions_total", "cache_evictions", row[5].I},
		{"engine_cache_resident", "cache_resident", row[6].I},
		{"engine_cache_pin_waits_total", "pin_waits", row[7].I},
		{"engine_wal_bytes_total", "wal_bytes", row[8].I},
		{"engine_wal_fsyncs_total", "wal_fsyncs", row[9].I},
		{"engine_redo_records", "redo_records", row[10].I},
		{"engine_redo_nanos", "redo_nanos", row[11].I},
	}
	for _, c := range checks {
		if got := metricValue(t, body, c.metric); got != float64(c.want) {
			t.Errorf("%s = %v, but ws_statistics.%s = %d", c.metric, got, c.col, c.want)
		}
	}
	if got := metricValue(t, body, "daemon_polls_total"); got != 1 {
		t.Errorf("daemon_polls_total = %v, want 1", got)
	}
	if metricValue(t, body, "daemon_last_poll_timestamp_seconds") <= 0 {
		t.Error("daemon_last_poll_timestamp_seconds missing or zero")
	}
}
