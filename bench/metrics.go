package main

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/analyzer"
	"repro/internal/monitor"
)

// metricDef is one row of BENCHMARK.json. The tables below are the
// single source of the names; bench_test.go holds BENCHMARK.json to
// them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// End-to-end metrics: measured with tracing off, emitted by every
// workload, each with the share of the parent's median by which it may
// worsen. See README.md for how each is taken.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"stmt_per_s", "1/s", "higher", 0.25},
	{"stmt_ms_p50", "ms", "lower", 0.25},
	{"stmt_ms_tail", "ms", "lower", 0.25},
	{"monitor_overhead_ratio", "ratio", "lower", 0.15},
	{"wdb_kb_per_kstmt", "KB/kstmt", "lower", 0.15},
	{"live_heap_mb", "MB", "lower", 0.05},
}

// Per-layer metrics: measured by the traced run, no bound. A metric a
// workload has no use for reads 0 there (netsql.* off mixed_rw,
// analyzer.* off tuning_loop).
var perLayer = []metricDef{
	{"sqlparser.parse_us_per_stmt", "us", "lower", 0},
	{"optimizer.plan_us_per_stmt", "us", "lower", 0},
	{"optimizer.whatif_ms_per_stmt", "ms", "lower", 0},
	{"executor.exec_ms_per_stmt", "ms", "lower", 0},
	{"executor.rows_examined_per_row_returned", "ratio", "lower", 0},
	{"executor.self_ms.scan", "ms", "lower", 0},
	{"executor.self_ms.join", "ms", "lower", 0},
	{"executor.self_ms.agg", "ms", "lower", 0},
	{"executor.self_ms.sort", "ms", "lower", 0},
	{"executor.parallel_queries", "count", "higher", 0},
	{"executor.morsels_dispatched", "count", "higher", 0},
	{"storage.pool_hit_ratio", "ratio", "higher", 0},
	{"storage.evictions_per_stmt", "1/stmt", "lower", 0},
	{"storage.disk_reads_per_stmt", "1/stmt", "lower", 0},
	{"storage.disk_writes_per_stmt", "1/stmt", "lower", 0},
	{"storage.pin_waits", "count", "lower", 0},
	{"storage.wal_bytes_per_write", "B", "lower", 0},
	{"storage.wal_fsyncs_per_write", "ratio", "lower", 0},
	{"storage.wal_fsync_ms_p50", "ms", "lower", 0},
	{"storage.checkpoint_ms", "ms", "lower", 0},
	{"storage.db_bytes_per_row", "B", "lower", 0},
	{"lock.waits_per_kstmt", "1/kstmt", "lower", 0},
	{"lock.wait_ms_total", "ms", "lower", 0},
	{"lock.deadlocks", "count", "lower", 0},
	{"engine.inproc_exec_us_per_stmt", "us", "lower", 0},
	{"engine.allocs_per_stmt", "1/stmt", "lower", 0},
	{"engine.alloc_kb_per_stmt", "KB/stmt", "lower", 0},
	{"engine.txn_commits", "count", "higher", 0},
	{"engine.write_ms_p50", "ms", "lower", 0},
	{"engine.write_conflicts_per_kwrite", "1/kwrite", "lower", 0},
	{"engine.vacuum_ms", "ms", "lower", 0},
	{"engine.vacuum_reclaimed", "count", "higher", 0},
	{"engine.chain_len_p95", "count", "lower", 0},
	{"engine.open_ms", "ms", "lower", 0},
	{"engine.reopen_ms", "ms", "lower", 0},
	{"monitor.sensor_ns_per_stmt", "ns", "lower", 0},
	{"monitor.record_ns_per_call", "ns", "lower", 0},
	{"monitor.workload_dropped", "count", "lower", 0},
	{"monitor.statement_count", "count", "higher", 0},
	{"ima.scan_ms.ima_statements", "ms", "lower", 0},
	{"ima.scan_ms.ima_workload", "ms", "lower", 0},
	{"daemon.poll_ms_p50", "ms", "lower", 0},
	{"daemon.poll_ms_max", "ms", "lower", 0},
	{"daemon.rows_appended_per_poll", "count", "lower", 0},
	{"daemon.poll_errors", "count", "lower", 0},
	{"daemon.carryover_drops", "count", "lower", 0},
	{"workloaddb.bytes_total", "B", "lower", 0},
	{"workloaddb.bytes_per_poll", "B", "lower", 0},
	{"analyzer.tune_s", "s", "lower", 0},
	{"analyzer.tuned_runtime_ratio", "ratio", "lower", 0},
	{"analyzer.analyze_ms", "ms", "lower", 0},
	{"analyzer.apply_ms", "ms", "lower", 0},
	{"analyzer.recs_index", "count", "higher", 0},
	{"analyzer.recs_modify", "count", "higher", 0},
	{"analyzer.recs_stats", "count", "higher", 0},
	{"analyzer.divergent_stmts", "count", "lower", 0},
	{"netsql.roundtrip_us", "us", "lower", 0},
	{"netsql.line_errors", "count", "lower", 0},
	{"core.open_ms", "ms", "lower", 0},
	{"core.close_ms", "ms", "lower", 0},
	{"telemetry.gather_ms", "ms", "lower", 0},
	{"process.peak_rss_mb", "MB", "lower", 0},
	{"process.gc_cycles", "count", "lower", 0},
	{"process.gc_pause_ms_total", "ms", "lower", 0},
	{"bench.trace_overhead_ratio", "ratio", "higher", 0},
	{"bench.host_speed_ratio", "ratio", "higher", 0},
}

func defOf(name string) *metricDef {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for i := range defs {
			if defs[i].Name == name {
				return &defs[i]
			}
		}
	}
	return nil
}

// metric is one measured value; N is the number of samples behind it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// results is one run's record, as -out appends it and -compare reads
// it.
type results struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Trace      bool     `json:"trace"`
	Seconds    float64  `json:"seconds"`
	Smoke      bool     `json:"smoke,omitempty"`
	Correct    bool     `json:"correct"`
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	FirstError string   `json:"first_error,omitempty"`
	Metrics    []metric `json:"metrics"`
	// Blocks is the timed phase block by block, for anyone who wants to
	// look under a median.
	Blocks []blockResult `json:"blocks,omitempty"`

	closeMs, reopenMs float64
	probe             map[string]float64 // what probes() measured, by metric name
	probeN            int                // statements in the probes' sample
}

func (r *results) add(name string, value float64, n int) {
	d := defOf(name)
	if d == nil {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: d.Unit, N: n})
}

func (r *results) value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// snapshot is the system's counters at one instant.
type snapshot struct {
	v     map[string]float64
	fsync monitor.LatencyCounts
}

// counters reads every counter struct the system exposes and, in a
// traced run, records the reading as a sample in the trace.
func (b *bench) counters(at string) snapshot {
	st := b.sys.DB.Stats()
	mv := b.sys.DB.MvccStats()
	ds := b.sys.Daemon.Stats()
	s := snapshot{v: map[string]float64{
		"statements":       float64(st.Statements),
		"lock_waits":       float64(st.LockWaits),
		"lock_wait_ns":     float64(st.LockWaitNanos),
		"deadlocks":        float64(st.Deadlocks),
		"cache_hits":       float64(st.CacheHits),
		"cache_misses":     float64(st.CacheMisses),
		"disk_reads":       float64(st.DiskReads),
		"disk_writes":      float64(st.DiskWrites),
		"db_bytes":         float64(st.DBBytes),
		"evictions":        float64(st.CacheEvictions),
		"pin_waits":        float64(st.PinWaits),
		"wal_bytes":        float64(st.WALBytes),
		"wal_fsyncs":       float64(st.WALFsyncs),
		"parallel_queries": float64(st.ParallelQueries),
		"morsels":          float64(st.MorselsDispatched),
		"txn_commits":      float64(mv.TxnCommits),
		"write_conflicts":  float64(mv.WriteConflicts),
		"vacuum_reclaimed": float64(mv.VacuumReclaimed),
		"chain_len_p95":    float64(mv.ChainLenP95),
		"polls":            float64(ds.Polls),
		"rows_appended":    float64(ds.RowsAppended),
		"poll_errors":      float64(ds.PollErrors),
		"carryover_drops":  float64(ds.CarryoverDrops),
		"wdb_bytes":        float64(b.sys.WorkloadDB.SizeBytes()),
		"mon_statements":   float64(b.sys.Monitor.TotalStatements()),
		"mon_ns":           float64(b.sys.Monitor.TotalMonitorTime()),
		"mon_dropped":      float64(b.sys.Monitor.WorkloadDropped()),
		"mon_distinct":     float64(b.sys.Monitor.StatementCount()),
	}}
	s.fsync, _ = b.sys.DB.WALFsyncLatency()
	b.tr.sample(at, s.v)
	return s
}

// blockSummary is the timed blocks split into what the metrics need.
type blockSummary struct {
	wall, p50, tail []float64 // of the monitored blocks
	ratios          []float64 // monitored/unmonitored wall per adjacent pair
	cal             []float64 // calibration slices of all blocks
	stmts           int       // statements in all blocks
}

// summarize pairs each monitored block with its unmonitored neighbour:
// in a quad [on off off on] the pairs are (0,1) and (3,2).
func summarize(blocks []blockResult) blockSummary {
	var s blockSummary
	for i, bl := range blocks {
		s.stmts += bl.Stmts
		s.cal = append(s.cal, bl.CalMs)
		if bl.On {
			s.wall = append(s.wall, bl.WallMs)
			s.p50 = append(s.p50, bl.P50Ms)
			s.tail = append(s.tail, bl.TailMs)
		}
		if i%4 == 3 {
			q := blocks[i-3 : i+1]
			s.ratios = append(s.ratios, q[0].WallMs/q[1].WallMs, q[3].WallMs/q[2].WallMs)
		}
	}
	return s
}

// writeLatency returns the latency histogram of the timed writes
// across all clients.
func (b *bench) writeLatency() *hist {
	w := &hist{}
	for _, c := range b.clients {
		w.merge(&c.writeLat)
	}
	return w
}

func (b *bench) endToEndMetrics(tm *timing, setupS []float64, c0, c1 snapshot, live *runtime.MemStats) {
	r := b.res
	r.Blocks = tm.blocks
	bs := summarize(tm.blocks)
	perBlock := float64(tm.blocks[0].Stmts)
	// How fast the host ran during this run, relative to nominal; see
	// calib.go. Times are scaled to what they would be at nominal speed.
	speed := calNominalMs / median(bs.cal)

	// Every block is the same batch of work, so the run's figure is the
	// median over its monitored blocks: a burst of interference from the
	// host moves a few blocks, not the median.
	r.add("setup_s", median(setupS), len(setupS))
	r.add("stmt_per_s", perBlock/(median(bs.wall)/1e3)/speed, len(bs.wall))
	r.add("stmt_ms_p50", median(bs.p50)*speed, len(bs.p50))
	r.add("stmt_ms_tail", median(bs.tail)*speed, len(bs.tail))
	r.add("monitor_overhead_ratio", median(bs.ratios), len(bs.ratios))
	// Growth per statement the workload DB actually took in: the
	// monitor's ring drops what the daemon cannot drain in time, and a
	// dropped statement costs no bytes.
	stored := (c1.v["mon_statements"] - c0.v["mon_statements"]) - (c1.v["mon_dropped"] - c0.v["mon_dropped"])
	r.add("wdb_kb_per_kstmt", (c1.v["wdb_bytes"]-c0.v["wdb_bytes"])/1024/(stored/1000), int(stored))
	// The calibration kernel's table is the driver's, not the system's.
	r.add("live_heap_mb", float64(live.HeapAlloc-uint64(len(calMem))*4)/(1<<20), 1)
}

func (b *bench) layerMetrics(tm *timing, c0, c1 snapshot, m0, m1 *runtime.MemStats) {
	r := b.res
	d := func(k string) float64 { return c1.v[k] - c0.v[k] }
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	bs := summarize(tm.blocks)
	allStmts := bs.stmts + len(tm.untunedPass)*len(b.mix)
	stmts := float64(allStmts)
	writes := b.writeLatency()
	self, count := b.tr.selfTimes()
	mean := func(name string) (float64, int) { // mean span duration in ns; spans here have no children
		return per(float64(self[name]), float64(count[name])), count[name]
	}
	parseNs, nParse := mean("sqlparser.parse")
	planNs, nPlan := mean("optimizer.plan")
	execNs, nExec := mean("engine.exec")
	rtNs, nRT := mean("netsql.roundtrip")
	r.add("sqlparser.parse_us_per_stmt", parseNs/1e3, nParse)
	// Explain parses before it plans, and Exec runs both before it
	// executes; the layer's own share is the difference.
	r.add("optimizer.plan_us_per_stmt", max(0, planNs-parseNs)/1e3, nPlan)
	r.add("optimizer.whatif_ms_per_stmt", r.probe["optimizer.whatif_ms_per_stmt"], r.probeN)
	r.add("executor.exec_ms_per_stmt", max(0, execNs-planNs)/1e6, nExec)
	r.add("executor.rows_examined_per_row_returned", r.probe["executor.rows_examined_per_row_returned"], r.probeN)
	for _, op := range []string{"scan", "join", "agg", "sort"} {
		r.add("executor.self_ms."+op, r.probe["executor.self_ms."+op], r.probeN)
	}
	r.add("executor.parallel_queries", d("parallel_queries"), 1)
	r.add("executor.morsels_dispatched", d("morsels"), 1)

	r.add("storage.pool_hit_ratio", per(d("cache_hits"), d("cache_hits")+d("cache_misses")), int(d("cache_hits")+d("cache_misses")))
	r.add("storage.evictions_per_stmt", per(d("evictions"), stmts), allStmts)
	r.add("storage.disk_reads_per_stmt", per(d("disk_reads"), stmts), allStmts)
	r.add("storage.disk_writes_per_stmt", per(d("disk_writes"), stmts), allStmts)
	r.add("storage.pin_waits", d("pin_waits"), 1)
	nWrites := float64(writes.n)
	r.add("storage.wal_bytes_per_write", per(d("wal_bytes"), nWrites), writes.n)
	r.add("storage.wal_fsyncs_per_write", per(d("wal_fsyncs"), nWrites), writes.n)
	var fs monitor.LatencyCounts
	for i := range fs {
		fs[i] = c1.fsync[i] - c0.fsync[i]
	}
	r.add("storage.wal_fsync_ms_p50", ms(fs.Quantile(0.5)), int(fs.Total()))
	r.add("storage.checkpoint_ms", r.probe["storage.checkpoint_ms"], 1)
	r.add("storage.db_bytes_per_row", per(c1.v["db_bytes"], float64(b.data.rows)), int(b.data.rows))

	r.add("lock.waits_per_kstmt", per(d("lock_waits"), stmts/1000), allStmts)
	r.add("lock.wait_ms_total", d("lock_wait_ns")/1e6, int(d("lock_waits")))
	r.add("lock.deadlocks", d("deadlocks"), 1)

	r.add("engine.inproc_exec_us_per_stmt", execNs/1e3, nExec)
	r.add("engine.allocs_per_stmt", per(float64(m1.Mallocs-m0.Mallocs), stmts), allStmts)
	r.add("engine.alloc_kb_per_stmt", per(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, stmts), allStmts)
	r.add("engine.txn_commits", d("txn_commits"), 1)
	r.add("engine.write_ms_p50", writes.percentileMs(50), writes.n)
	r.add("engine.write_conflicts_per_kwrite", per(d("write_conflicts"), d("txn_commits")/1000), int(d("txn_commits")))
	r.add("engine.vacuum_ms", r.probe["engine.vacuum_ms"], 1)
	r.add("engine.vacuum_reclaimed", d("vacuum_reclaimed"), 1)
	r.add("engine.chain_len_p95", c1.v["chain_len_p95"], 1)
	r.add("engine.open_ms", r.probe["engine.open_ms"], 1)
	r.add("engine.reopen_ms", r.reopenMs, 1)

	r.add("monitor.sensor_ns_per_stmt", per(d("mon_ns"), d("mon_statements")), int(d("mon_statements")))
	r.add("monitor.record_ns_per_call", r.probe["monitor.record_ns_per_call"], recordLoopN)
	r.add("monitor.workload_dropped", d("mon_dropped"), 1)
	r.add("monitor.statement_count", c1.v["mon_distinct"], 1)
	r.add("ima.scan_ms.ima_statements", r.probe["ima.scan_ms.ima_statements"], 1)
	r.add("ima.scan_ms.ima_workload", r.probe["ima.scan_ms.ima_workload"], 1)

	b.pollMu.Lock()
	polls := append([]float64(nil), b.pollMs...)
	b.pollMu.Unlock()
	sort.Float64s(polls)
	r.add("daemon.poll_ms_p50", median(polls), len(polls))
	r.add("daemon.poll_ms_max", polls[len(polls)-1], len(polls))
	r.add("daemon.rows_appended_per_poll", per(d("rows_appended"), d("polls")), int(d("polls")))
	r.add("daemon.poll_errors", c1.v["poll_errors"], 1)
	r.add("daemon.carryover_drops", c1.v["carryover_drops"], 1)
	r.add("workloaddb.bytes_total", c1.v["wdb_bytes"], 1)
	r.add("workloaddb.bytes_per_poll", per(d("wdb_bytes"), d("polls")), int(d("polls")))

	var tunedRatio float64
	recs := map[analyzer.Kind]int{}
	divergent := 0
	if tm.report != nil {
		var untuned []float64
		for _, w := range tm.untunedPass {
			untuned = append(untuned, ms(w))
		}
		tunedRatio = median(bs.wall) / median(untuned)
		for _, rec := range tm.report.Recommendations {
			recs[rec.Kind]++
		}
		divergent = tm.report.DivergentCount
	}
	r.add("analyzer.tune_s", tm.tune.Seconds(), 1)
	r.add("analyzer.tuned_runtime_ratio", tunedRatio, len(tm.untunedPass))
	r.add("analyzer.analyze_ms", ms(tm.analyzeD), 1)
	r.add("analyzer.apply_ms", ms(tm.applyD), 1)
	r.add("analyzer.recs_index", float64(recs[analyzer.KindIndex]), 1)
	r.add("analyzer.recs_modify", float64(recs[analyzer.KindModify]), 1)
	r.add("analyzer.recs_stats", float64(recs[analyzer.KindStatistics]), 1)
	r.add("analyzer.divergent_stmts", float64(divergent), 1)

	r.add("netsql.roundtrip_us", max(0, rtNs-execNs)/1e3, nRT) // no such spans, hence 0, unless remote
	r.add("netsql.line_errors", r.probe["netsql.line_errors"], 1)
	r.add("core.open_ms", ms(self["core.open"])/float64(max(count["core.open"], 1)), count["core.open"])
	r.add("core.close_ms", r.closeMs, 1)
	r.add("telemetry.gather_ms", r.probe["telemetry.gather_ms"], 1)

	r.add("process.peak_rss_mb", peakRSSMB(), 1)
	r.add("process.gc_cycles", float64(m1.NumGC-m0.NumGC), 1)
	r.add("process.gc_pause_ms_total", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, int(m1.NumGC-m0.NumGC))
	// What the traced statements' extra calls (replays, span
	// bookkeeping) cost the clients, as the share of monitored client
	// time left for the traffic itself: approximately traced / untraced
	// stmt_per_s.
	var extra time.Duration
	for name, dur := range self {
		if name == "stmt" || name == "sqlparser.parse" || name == "optimizer.plan" ||
			(b.sp.remote && name == "engine.exec") {
			extra += dur
		}
	}
	var busy float64 // client-milliseconds of the timed blocks
	for _, bl := range tm.blocks {
		busy += bl.WallMs * float64(b.nClient)
	}
	r.add("bench.trace_overhead_ratio", max(0, 1-per(ms(extra), busy)), count["stmt"])
	// Per-layer times are reported as measured; this is the factor the
	// end-to-end metrics of the same conditions would be scaled by.
	r.add("bench.host_speed_ratio", calNominalMs/median(bs.cal), len(bs.cal))
}
