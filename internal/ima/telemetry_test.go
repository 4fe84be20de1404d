package ima

import (
	"fmt"
	"sync"
	"testing"
)

// TestLatencyTableMatchesFrequencies checks the telemetry-plane
// invariant: for every statement, the stmt-scope bucket counts in
// ima_latency sum exactly to its frequency in ima_statements, and the
// global wall histogram equals the sum over all statements.
func TestLatencyTableMatchesFrequencies(t *testing.T) {
	_, _, s := newMonitoredDB(t)
	seed(t, s)

	lat := exec(t, s, "SELECT scope, hash, bucket_count FROM ima_latency")
	perHash := map[int64]int64{}
	var wallTotal, stmtTotal int64
	for _, r := range lat.Rows {
		switch r[0].S {
		case "wall":
			wallTotal += r[2].I
		case "stmt":
			perHash[r[1].I] += r[2].I
			stmtTotal += r[2].I
		}
	}
	if wallTotal == 0 {
		t.Fatal("global wall histogram is empty after seed workload")
	}
	if wallTotal != stmtTotal {
		t.Errorf("global wall total %d != Σ per-statement totals %d", wallTotal, stmtTotal)
	}

	freq := exec(t, s, "SELECT hash, frequency FROM ima_statements")
	freqByHash := map[int64]int64{}
	for _, r := range freq.Rows {
		freqByHash[r[0].I] = r[1].I
	}
	for hash, n := range perHash {
		if freqByHash[hash] != n {
			t.Errorf("hash %d: ima_latency sum %d != ima_statements frequency %d",
				hash, n, freqByHash[hash])
		}
	}
}

func TestLatencyTableBucketBounds(t *testing.T) {
	_, _, s := newMonitoredDB(t)
	seed(t, s)
	res := exec(t, s, "SELECT bucket, lo_ns, hi_ns, bucket_count FROM ima_latency WHERE scope = 'wall'")
	if len(res.Rows) == 0 {
		t.Fatal("no wall-scope rows")
	}
	for _, r := range res.Rows {
		if r[1].I >= r[2].I {
			t.Errorf("bucket %d: lo %d >= hi %d", r[0].I, r[1].I, r[2].I)
		}
		if r[3].I <= 0 {
			t.Errorf("bucket %d: empty buckets must be skipped, count %d", r[0].I, r[3].I)
		}
	}
}

// TestSpansTableAfterExplainAnalyze checks that EXPLAIN ANALYZE leaves
// a per-operator trace in ima_spans that joins ima_statements on hash.
func TestSpansTableAfterExplainAnalyze(t *testing.T) {
	_, _, s := newMonitoredDB(t)
	seed(t, s)
	const sql = "EXPLAIN ANALYZE SELECT v FROM items WHERE id = 3"
	exec(t, s, sql)

	spans := exec(t, s, "SELECT trace_seq, hash, op, depth, rows, span_ns, calls FROM ima_spans")
	if len(spans.Rows) == 0 {
		t.Fatal("ima_spans is empty after EXPLAIN ANALYZE")
	}
	hash := spans.Rows[0][1].I
	sawRoot := false
	for _, r := range spans.Rows {
		if r[1].I != hash {
			t.Errorf("span hash %d differs from %d within one trace", r[1].I, hash)
		}
		if r[2].S == "" {
			t.Error("span with empty operator name")
		}
		if r[3].I == 0 {
			sawRoot = true
		}
	}
	if !sawRoot {
		t.Error("no depth-0 root span")
	}

	// The trace hash joins back to the monitored statement text.
	joined := exec(t, s, fmt.Sprintf(
		"SELECT query_text FROM ima_statements WHERE hash = %d", hash))
	if len(joined.Rows) != 1 || joined.Rows[0][0].S != sql {
		t.Errorf("ima_spans.hash does not join ima_statements: %v", joined.Rows)
	}
}

func TestHealthTable(t *testing.T) {
	_, _, s := newMonitoredDB(t)
	seed(t, s)
	res := exec(t, s, "SELECT component, metric, value FROM ima_health WHERE component = 'monitor'")
	vals := map[string]float64{}
	for _, r := range res.Rows {
		vals[r[1].S] = r[2].F
	}
	if vals["statements_total"] <= 0 {
		t.Errorf("statements_total = %v, want > 0; rows: %v", vals["statements_total"], res.Rows)
	}
	if vals["distinct_statements"] <= 0 {
		t.Errorf("distinct_statements = %v, want > 0", vals["distinct_statements"])
	}
	if _, ok := vals["traces_buffered"]; !ok {
		t.Error("traces_buffered metric missing")
	}
}

// TestIMATablesConcurrentWithWriter reads every ima_* table from
// several sessions while another session keeps executing statements.
// Run under -race this exercises every provider against the monitor's
// concurrent recording path.
func TestIMATablesConcurrentWithWriter(t *testing.T) {
	db, _, s := newMonitoredDB(t)
	seed(t, s)

	tables := []string{
		"ima_statements", "ima_workload", "ima_references", "ima_tables",
		"ima_attributes", "ima_indexes", "ima_statistics",
		"ima_latency", "ima_spans", "ima_health",
	}

	stop := make(chan struct{})
	errc := make(chan error, 8)

	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() { // writer: keeps the monitor's hot path busy
		defer writerWG.Done()
		ws := db.NewSession()
		defer ws.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sql := fmt.Sprintf("SELECT v FROM items WHERE id = %d", i%seedRows)
			if i%50 == 0 {
				sql = "EXPLAIN ANALYZE SELECT COUNT(*) FROM items"
			}
			if _, err := ws.Exec(sql); err != nil {
				errc <- fmt.Errorf("writer: %v", err)
				return
			}
		}
	}()

	var readerWG sync.WaitGroup
	const readers = 4
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			rs := db.NewSession()
			defer rs.Close()
			for round := 0; round < 10; round++ {
				for _, tbl := range tables {
					if _, err := rs.Exec("SELECT * FROM " + tbl); err != nil {
						errc <- fmt.Errorf("%s: %v", tbl, err)
						return
					}
				}
			}
		}()
	}

	readerWG.Wait()
	close(stop)
	writerWG.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
