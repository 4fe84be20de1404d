package telemetry

import (
	"strconv"

	"repro/internal/analyzer"
	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/ima"
	"repro/internal/monitor"
	"repro/internal/stage"
)

// Adapters turning the monitoring components into metric sources. They
// read only snapshot/atomic accessors, so scraping never blocks the
// statement hot path.

// HistogramMetrics renders a monitor latency histogram as Prometheus
// histogram series: cumulative <name>_bucket{le=...} samples plus
// <name>_sum (seconds) and <name>_count. Empty buckets are skipped —
// cumulative counts stay correct and the exposition stays small.
func HistogramMetrics(name, help string, c *monitor.LatencyCounts, sum float64) []Metric {
	total := c.Total()
	out := make([]Metric, 0, 8)
	var cum int64
	for i, v := range c {
		cum += v
		if v == 0 {
			continue
		}
		_, hi := monitor.LatencyBucketBounds(i)
		out = append(out, Metric{
			Name: name + "_bucket", Help: help, Kind: Counter, Value: float64(cum),
			Labels: []Label{{Key: "le", Value: strconv.FormatInt(int64(hi), 10)}},
		})
	}
	out = append(out,
		Metric{Name: name + "_bucket", Help: help, Kind: Counter, Value: float64(total),
			Labels: []Label{{Key: "le", Value: "+Inf"}}},
		Metric{Name: name + "_sum", Help: help, Kind: Counter, Value: sum},
		Metric{Name: name + "_count", Help: help, Kind: Counter, Value: float64(total)},
	)
	return out
}

// MonitorSource exposes the monitor's totals and latency histograms.
func MonitorSource(m *monitor.Monitor) Source {
	return func() []Metric {
		wall, opt := m.SnapshotLatency()
		wallSum, optSum := m.LatencySums()
		ms := []Metric{
			{Name: "monitor_statements_total", Help: "Monitored statement executions.", Kind: Counter, Value: float64(m.TotalStatements())},
			{Name: "monitor_sensor_seconds_total", Help: "Wallclock seconds spent inside monitor sensors.", Kind: Counter, Value: m.TotalMonitorTime().Seconds()},
			{Name: "monitor_distinct_statements", Help: "Distinct statement shapes in the statement table.", Kind: Gauge, Value: float64(m.StatementCount())},
			{Name: "monitor_evicted_statements_total", Help: "Executions counted for shapes since evicted from the statement table (statements_total minus the live frequencies).", Kind: Counter, Value: float64(m.EvictedStatements())},
			{Name: "monitor_workload_depth", Help: "Evicted statement entries whose workload sums wait for the daemon (at most the statement capacity).", Kind: Gauge, Value: float64(m.WorkloadDepth())},
			{Name: "monitor_workload_dropped_total", Help: "Executions whose workload sums were lost because more evicted entries held sums than the statement capacity.", Kind: Counter, Value: float64(m.WorkloadDropped())},
			{Name: "monitor_traces_buffered", Help: "EXPLAIN ANALYZE traces in the trace ring.", Kind: Gauge, Value: float64(m.TraceCount())},
		}
		sensor := m.TotalMonitorTime().Seconds()
		publish := m.PublishTime().Seconds()
		ms = append(ms, Metric{Name: "monitor_publish_seconds_total", Help: "Wallclock seconds spent publishing statement shapes (once per prepared statement, outside any statement's sensor time).", Kind: Counter, Value: publish})
		if wallSum > 0 {
			ms = append(ms, Metric{Name: "monitor_overhead_ratio",
				Help: "Monitor self-overhead (sensors + shape publishing) over total statement wallclock.",
				Kind: Gauge, Value: (sensor + publish) / wallSum.Seconds()})
		}
		// Stage attribution of the sampled executions (ima_stages sums
		// the same vectors per statement).
		st := m.StageTotals()
		ms = append(ms, Metric{Name: "engine_stage_samples_total", Help: "Statement executions sampled for stage attribution.", Kind: Counter, Value: float64(st.Samples)})
		for i, ns := range st.Ns {
			ms = append(ms, Metric{Name: "engine_stage_seconds_total", Help: "Wallclock seconds of the sampled executions, by stage of the statement path.", Kind: Counter,
				Value: float64(ns) / 1e9, Labels: []Label{{Key: "stage", Value: stage.Stage(i).String()}}})
		}
		ms = append(ms, HistogramMetrics("monitor_statement_wall_ns",
			"Statement wallclock latency in nanoseconds.", &wall, wallSum.Seconds()*1e9)...)
		ms = append(ms, HistogramMetrics("monitor_statement_opt_ns",
			"Optimizer time per statement in nanoseconds.", &opt, optSum.Seconds()*1e9)...)
		return ms
	}
}

// counterMetrics renders the exported sensors of an ima counter table
// from one reading.
func counterMetrics[T any](counters []ima.Counter[T], r T) []Metric {
	out := make([]Metric, 0, len(counters))
	for _, c := range counters {
		if c.Metric == "" {
			continue
		}
		m := Metric{Name: c.Metric, Help: c.Help, Kind: Counter, Value: float64(c.Get(&r))}
		if c.Gauge {
			m.Kind = Gauge
		}
		if c.Div != 0 {
			m.Value /= c.Div
		}
		out = append(out, m)
	}
	return out
}

// EngineSource exposes the engine-wide sensors the ima registry
// declares — the series behind ima_statistics and ima_mvcc — plus the
// WAL fsync latency histogram.
func EngineSource(db *engine.DB) Source {
	return func() []Metric {
		ms := counterMetrics(ima.SystemCounters, ima.SystemReading{SystemStats: db.Stats()})
		lc, fsyncSumNanos := db.WALFsyncLatency()
		ms = append(ms, HistogramMetrics("engine_wal_fsync_ns",
			"WAL fsync latency in nanoseconds.", &lc, float64(fsyncSumNanos))...)
		return append(ms, counterMetrics(ima.MvccCounters, db.MvccStats())...)
	}
}

// TuningSource exposes the autonomous-tuning loop: the apply state
// machine's outcome counters, the analyzer's apply failures, and the
// live buffer-pool capacity (which pool-resize actions change at
// runtime).
func TuningSource(a *analyzer.Analyzer, ap *analyzer.Applier, db *engine.DB) Source {
	return func() []Metric {
		accepted, rolledBack, failed := ap.Stats()
		return []Metric{
			{Name: "engine_tuning_actions_accepted_total", Help: "Tuning actions accepted after their canary window.", Kind: Counter, Value: float64(accepted)},
			{Name: "engine_tuning_actions_rolled_back_total", Help: "Tuning actions rolled back for regressing the tail latency.", Kind: Counter, Value: float64(rolledBack)},
			{Name: "engine_tuning_actions_failed_total", Help: "Tuning actions whose execution or rollback failed.", Kind: Counter, Value: float64(failed)},
			{Name: "engine_tuning_apply_failures_total", Help: "Recommendations the analyzer could not execute.", Kind: Counter, Value: float64(a.ApplyFailures())},
			{Name: "engine_tuning_pool_capacity_pages", Help: "Current buffer pool capacity in pages (live-resizable).", Kind: Gauge, Value: float64(db.PoolCapacity())},
		}
	}
}

// DaemonSource exposes the storage daemon's Stats() counters — the
// collector's own health, mirroring the fault-tolerance columns the
// daemon appends to ws_statistics.
func DaemonSource(d *daemon.Daemon) Source {
	return func() []Metric {
		st := d.Stats()
		ms := []Metric{
			{Name: "daemon_polls_total", Help: "Completed poll attempts.", Kind: Counter, Value: float64(st.Polls)},
			{Name: "daemon_rows_appended_total", Help: "Rows appended to the workload DB.", Kind: Counter, Value: float64(st.RowsAppended)},
			{Name: "daemon_rows_pruned_total", Help: "Rows pruned past retention.", Kind: Counter, Value: float64(st.RowsPruned)},
			{Name: "daemon_alerts_fired_total", Help: "Alert actions invoked.", Kind: Counter, Value: float64(st.AlertsFired)},
			{Name: "daemon_poll_errors_total", Help: "Polls that returned a transient error.", Kind: Counter, Value: float64(st.PollErrors)},
			{Name: "daemon_retries_total", Help: "Backoff retry polls executed.", Kind: Counter, Value: float64(st.Retries)},
			{Name: "daemon_alert_errors_total", Help: "Alert evaluations that failed.", Kind: Counter, Value: float64(st.AlertErrors)},
			{Name: "daemon_carryover_depth", Help: "Workload rows the last poll selected but did not land (they are read again next poll).", Kind: Gauge, Value: float64(st.CarryoverDepth)},
		}
		if !st.LastPoll.IsZero() {
			ms = append(ms, Metric{Name: "daemon_last_poll_timestamp_seconds",
				Help: "Unix time of the last poll attempt.", Kind: Gauge,
				Value: float64(st.LastPoll.UnixNano()) / 1e9})
		}
		return ms
	}
}
