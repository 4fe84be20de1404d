package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the tables
// the driver emits from, so neither can drift.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, driver %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json   %+v\n driver %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json   %+v\n driver %+v", bf.PerLayer, perLayer)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, driver default %d", bf.RunSeconds, defaultSeconds)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRe.MatchString(d.Name) || !unitRe.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: outside the contract's character set", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better is %q", d.Name, d.Better)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end needs setup_s, unit s, lower is better")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's limits", len(perLayer), len(endToEnd))
	}
}

// TestSmoke runs all four workloads at smoke size, untraced and
// traced, and checks that each emits exactly the declared metrics,
// passes its correctness checks, and leaves a consistent span file.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: sp.name, seed: 1, seconds: 0.3, trace: trace, smoke: true,
				tmpBase: t.TempDir(), outDir: t.TempDir()}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d: %s",
					sp.name, trace, res.Correct, res.Failed, res.Attempted, res.FirstError)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", sp.name, trace, len(res.Metrics), len(want))
			}
			for i, m := range res.Metrics {
				if i < len(want) && (m.Name != want[i].Name || m.Unit != want[i].Unit) {
					t.Errorf("%s trace=%v: metric %d is %s [%s], declared %s [%s]",
						sp.name, trace, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sp.name, m.Name, m.Value)
				}
			}
			if trace {
				checkTraceFile(t, cfg.outDir+"/trace-"+sp.name+".json")
			}
		}
	}
	t.Logf("smoke suite took %s", time.Since(start).Round(time.Millisecond))
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || len(tf.Counters) < 2 {
		t.Fatalf("%s: %d spans, %d counter samples", path, len(tf.Spans), len(tf.Counters))
	}
	names := map[string]bool{}
	for _, s := range tf.Spans {
		names[s.Name] = true
		if s.End < s.Start {
			t.Errorf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
		if s.Parent != 0 {
			p := tf.Spans[s.Parent-1]
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %d (%s) is not inside its parent %d (%s)", path, s.ID, s.Name, p.ID, p.Name)
			}
		}
	}
	for _, want := range []string{"stmt", "sqlparser.parse", "optimizer.plan", "daemon.poll", "storage.checkpoint", "engine.vacuum", "core.open", "core.close"} {
		if !names[want] {
			t.Errorf("%s: no %s span", path, want)
		}
	}
	// Spans come from at most nClient client goroutines plus the
	// poller; per-layer self times must fit in that much wall time.
	var sum float64
	for _, v := range tf.SelfMs {
		sum += v
	}
	if budget := 3 * float64(tf.WallNs) / 1e6; sum > budget {
		t.Errorf("%s: self times sum to %.1f ms, more than the %.1f ms three goroutines had", path, sum, budget)
	}
}

// TestStreamsAreSeeded: the same seed must generate byte-identical
// traffic and a different seed must not.
func TestStreamsAreSeeded(t *testing.T) {
	stream := func(sp *spec, seed int64) string {
		var sb strings.Builder
		for client := 0; client < 2; client++ {
			g := newGenerator(sp, 500, seed, client)
			for i := 0; i < 2000; i++ {
				sb.WriteString(g.next().sql)
				sb.WriteByte('\n')
			}
		}
		sb.WriteString(strings.Join(complexMix(500, seed), "\n"))
		return sb.String()
	}
	for _, name := range []string{"point_select", "mixed_rw"} {
		sp := specByName(name)
		if stream(sp, 7) != stream(sp, 7) {
			t.Errorf("%s: seed 7 generated two different streams", name)
		}
		if stream(sp, 7) == stream(sp, 8) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", name)
		}
	}
	if len(complexMix(500, 1)) != 50 || len(referenceIndexes()) != 33 {
		t.Errorf("complex mix has %d queries (want 50), reference design %d indexes (want 33)",
			len(complexMix(500, 1)), len(referenceIndexes()))
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h hist
	for i := 1; i <= 100000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, p := range []float64{50, 90, 99} {
		got, want := h.percentileMs(p), p // i µs up to 100 ms: the p-th percentile is p ms
		if got < want*0.99 || got > want*1.01 {
			t.Errorf("p%v = %v ms, want %v within 1%%", p, got, want)
		}
	}
	for _, ns := range []int64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<40 + 12345} {
		lo, hi := bucketBounds(histBucket(ns))
		if float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("%d ns landed in bucket [%v, %v)", ns, lo, hi)
		}
	}
}

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(v, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
