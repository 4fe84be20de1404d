package ima

// The single definition of every monitoring relation. Everything else
// is derived from this file: the ima_* virtual tables (Register), the
// ws_* workload tables and their DDL (package workloaddb), the storage
// daemon's copy loop (package daemon) and the engine's /metrics series
// (package telemetry). Adding a sensor is one Counter line; adding a
// relation is one Relations entry.

import (
	"sort"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/monitor"
	"repro/internal/sqltypes"
)

// Column is one typed column of a monitoring relation.
type Column struct {
	Name string
	Type sqltypes.Type
	// Width bounds Text values in bytes: longer values are cut on a
	// rune boundary in every row the relation serves, and the ws_ table
	// declares VARCHAR(Width). 0 (live-only columns) means unbounded.
	Width int
	// Live marks a column that exists only in the ima_ table; the
	// persisted ws_ table masks it out.
	Live bool
}

// Int, Float and Text declare a column; Live marks one live-only.
func Int(name string) Column   { return Column{Name: name, Type: sqltypes.Int} }
func Float(name string) Column { return Column{Name: name, Type: sqltypes.Float} }
func Text(name string, width int) Column {
	return Column{Name: name, Type: sqltypes.Text, Width: width}
}
func Live(c Column) Column { c.Live = true; return c }

// Relation declares one monitoring relation: ima_<Name> serves Rows
// live over SQL, and — unless Persist is LiveOnly — the storage daemon
// appends the rows the rule selects, minus Live columns and stamped
// with the poll's ts_us, to ws_<Name>.
type Relation struct {
	Name     string
	Columns  []Column
	Provider func(*Sources) []sqltypes.Row // full-width rows, one value per Column
	// LiveRows, when set, adds rows only ima_<Name> serves — the row
	// analogue of a Live column; the persist rule never sees them.
	LiveRows func(*Sources) []sqltypes.Row
	Persist  Persist
	// Landed, when set, learns that the first n rows Provider served
	// from src.Cut landed in ws_<Name>: a relation of pending sums
	// subtracts them at the source, so they land once and what failed to
	// land is read again next poll.
	Landed func(src *Sources, n int)
}

// Rule is the vocabulary of persist rules: which of a relation's
// current rows one poll appends.
type Rule int

const (
	LiveOnly     Rule = iota // never persisted
	All                      // every row, every poll
	ChangedSince             // rows whose Cols[0] (unix µs) is not older than the last fully landed poll
	Once                     // rows whose Cols key has not landed before (bounded memory, oldest keys forgotten first)
	After                    // rows whose Cols[0] (a monotone sequence) exceeds the highest value landed
	Nonzero                  // rows whose Cols[0] is not 0
)

// Persist is a relation's persist rule and the columns it inspects.
type Persist struct {
	Rule Rule
	Cols []string
}

// textMax is the width of free-text columns: the engine's row limit.
const textMax = engine.MaxTextBytes

// Relations is the registry, in ws_ table creation order.
var Relations = []Relation{
	{
		Name: "statements",
		Columns: []Column{Int("hash"), Text("query_text", textMax), Text("kind", 32),
			Int("frequency"), Int("first_seen_us"), Int("last_seen_us")},
		Provider: func(src *Sources) []sqltypes.Row {
			return each(src.statements(), func(s monitor.StatementInfo) sqltypes.Row {
				return sqltypes.Row{
					sqltypes.NewInt(int64(s.Hash)),
					sqltypes.NewText(s.Text),
					sqltypes.NewText(s.Kind),
					sqltypes.NewInt(s.Frequency),
					sqltypes.NewInt(s.FirstSeen.UnixMicro()),
					sqltypes.NewInt(s.LastSeen.UnixMicro()),
				}
			})
		},
		Persist: Persist{ChangedSince, []string{"last_seen_us"}},
	},
	{
		// One row per statement and poll: the executions no landed row
		// has carried yet, every cost column a sum over them, start_us
		// the latest start, error the number that failed. Every row is
		// persisted, and landing subtracts it in the monitor, so each
		// execution lands exactly once.
		Name: "workload",
		Columns: []Column{Int("hash"), Int("start_us"), Int("wall_us"), Int("opt_us"),
			Int("exec_cpu"), Int("exec_io"), Float("est_cpu"), Float("est_io"), Float("est_rows"),
			Int("rows"), Int("mon_ns"), Int("error"), Int("executions")},
		Provider: func(src *Sources) []sqltypes.Row { return each(src.workload(), workloadRow) },
		Persist:  Persist{Rule: All},
		Landed:   func(src *Sources, n int) { src.Mon.Landed(src.Cut.Workload[:n]) },
	},
	{
		Name:    "references",
		Columns: []Column{Int("hash"), Text("obj_type", 16), Text("obj_name", 128), Text("table_name", 64)},
		Provider: func(src *Sources) []sqltypes.Row {
			return each(src.references(), func(r monitor.Reference) sqltypes.Row {
				return sqltypes.Row{
					sqltypes.NewInt(int64(r.Hash)),
					sqltypes.NewText(r.Type.String()),
					sqltypes.NewText(r.Name),
					sqltypes.NewText(r.Table),
				}
			})
		},
		Persist: Persist{Once, []string{"hash", "obj_type", "obj_name"}},
	},
	{
		Name: "tables",
		Columns: []Column{Text("table_name", 64), Int("frequency"), Text("structure", 16),
			Int("data_pages"), Int("overflow_pages"), Int("row_count")},
		Provider: func(src *Sources) []sqltypes.Row {
			tableFreq, _, _ := src.frequencies()
			return each(src.DB.Catalog().Tables(), func(t *catalog.Table) sqltypes.Row {
				tn := strings.ToLower(t.Name)
				ts := src.DB.TableState(t.Name)
				return sqltypes.Row{
					sqltypes.NewText(tn),
					sqltypes.NewInt(tableFreq[tn]),
					sqltypes.NewText(string(t.Structure)),
					sqltypes.NewInt(int64(ts.Pages)),
					sqltypes.NewInt(int64(ts.OverflowPages)),
					sqltypes.NewInt(ts.Rows),
				}
			})
		},
		Persist: Persist{Rule: All},
	},
	{
		Name:    "attributes",
		Columns: []Column{Text("attr_name", 128), Text("table_name", 64), Int("frequency"), Int("has_histogram")},
		Provider: func(src *Sources) []sqltypes.Row {
			_, attrFreq, _ := src.frequencies()
			cat := src.DB.Catalog()
			var rows []sqltypes.Row
			for _, t := range cat.Tables() {
				tn := strings.ToLower(t.Name)
				for _, c := range t.Schema.Columns {
					attr := tn + "." + strings.ToLower(c.Name)
					rows = append(rows, sqltypes.Row{
						sqltypes.NewText(attr),
						sqltypes.NewText(tn),
						sqltypes.NewInt(attrFreq[attr]),
						sqltypes.NewBool(cat.Histogram(t.Name, c.Name) != nil),
					})
				}
			}
			return rows
		},
		Persist: Persist{Nonzero, []string{"frequency"}}, // only attributes the workload touched
	},
	{
		// The name-sorted union of the catalog's indexes and every name
		// the monitor counted a use of: primary structures appear as
		// "<table>.primary", dropped indexes keep their frequency.
		Name:    "indexes",
		Columns: []Column{Text("index_name", 64), Text("table_name", 64), Int("frequency"), Int("is_virtual")},
		Provider: func(src *Sources) []sqltypes.Row {
			_, _, indexFreq := src.frequencies()
			type meta struct {
				table   string
				virtual bool
			}
			known := map[string]meta{}
			for name := range indexFreq {
				// A name the catalog no longer has is a dropped index,
				// its table unknown, or a table's primary structure.
				table, _ := strings.CutSuffix(name, ".primary")
				if table == name {
					table = ""
				}
				known[name] = meta{table: table}
			}
			for _, ix := range src.DB.Catalog().Indexes() {
				known[strings.ToLower(ix.Name)] = meta{strings.ToLower(ix.Table), ix.Virtual}
			}
			names := make([]string, 0, len(known))
			for name := range known {
				names = append(names, name)
			}
			sort.Strings(names)
			rows := make([]sqltypes.Row, 0, len(names))
			for _, name := range names {
				rows = append(rows, sqltypes.Row{
					sqltypes.NewText(name),
					sqltypes.NewText(known[name].table),
					sqltypes.NewInt(indexFreq[name]),
					sqltypes.NewBool(known[name].virtual),
				})
			}
			return rows
		},
		Persist: Persist{Nonzero, []string{"frequency"}}, // only indexes the workload used
	},
	scalar("statistics", SystemCounters, (*Sources).System),
	{
		// One row per non-empty histogram bucket; counts are cumulative
		// since monitor start (counter semantics), so consumers
		// difference successive snapshots. The global scopes (hash 0) are
		// persisted, the per-statement scope is live only. Not "count":
		// that collides with COUNT().
		Name: "latency",
		Columns: []Column{Text("scope", 8), Live(Int("hash")), Int("bucket"),
			Int("lo_ns"), Int("hi_ns"), Int("bucket_count")},
		Provider: func(src *Sources) []sqltypes.Row {
			wall, opt := src.Mon.SnapshotLatency()
			return latencyRows(latencyRows(nil, "wall", 0, &wall), "opt", 0, &opt)
		},
		LiveRows: func(src *Sources) (rows []sqltypes.Row) {
			for _, s := range src.statements() {
				rows = latencyRows(rows, "stmt", s.Hash, &s.Lat)
			}
			return rows
		},
		Persist: Persist{Rule: All},
	},
	{
		// rows is what the operator produced: below a LIMIT that stopped it
		// early, up to one batch more than was consumed. calls is rows plus
		// one for the call that reported exhaustion — rows + 1 for every
		// operator that was drained, rows for one a LIMIT stopped early —
		// whatever the number of batches the rows travelled in.
		Name: "spans",
		Columns: []Column{Int("trace_seq"), Int("hash"), Int("start_us"), Int("wall_us"),
			Text("op", 0), Text("detail", textMax), Int("depth"), Float("est_rows"), Int("rows"),
			Int("span_ns"), Int("self_ns"), Int("calls")},
		Provider: func(src *Sources) []sqltypes.Row {
			var rows []sqltypes.Row
			for _, t := range src.Mon.SnapshotTraces() {
				for _, sp := range t.Spans {
					rows = append(rows, sqltypes.Row{
						sqltypes.NewInt(int64(t.Seq)),
						sqltypes.NewInt(int64(t.Hash)),
						sqltypes.NewInt(t.Start.UnixMicro()),
						sqltypes.NewInt(t.Wall.Microseconds()),
						sqltypes.NewText(sp.Op),
						sqltypes.NewText(sp.Detail),
						sqltypes.NewInt(int64(sp.Depth)),
						sqltypes.NewFloat(sp.EstRows),
						sqltypes.NewInt(sp.Rows),
						sqltypes.NewInt(sp.Nanos),
						sqltypes.NewInt(sp.SelfNanos),
						sqltypes.NewInt(sp.Calls),
					})
				}
			}
			return rows
		},
	},
	{
		Name:    "health",
		Columns: []Column{Text("component", 0), Text("metric", 0), Float("value")},
		Provider: func(src *Sources) []sqltypes.Row {
			gather := src.Health
			if gather == nil {
				gather = func() []HealthMetric { return MonitorHealth(src.Mon) }
			}
			return each(gather(), func(m HealthMetric) sqltypes.Row {
				return sqltypes.Row{sqltypes.NewText(m.Component), sqltypes.NewText(m.Metric), sqltypes.NewFloat(m.Value)}
			})
		},
	},
	{
		Name: "flags",
		Columns: []Column{Int("hash"), Text("query_text", textMax), Text("reason", 0), Int("manual"),
			Int("since_us"), Int("age_us"), Int("expires_us"), Int("samples")},
		Provider: func(src *Sources) []sqltypes.Row {
			now := time.Now()
			return each(src.Mon.SnapshotFlags(), func(f monitor.FlaggedStatement) sqltypes.Row {
				expires := int64(0) // never
				if !f.Expires.IsZero() {
					expires = f.Expires.UnixMicro()
				}
				return sqltypes.Row{
					sqltypes.NewInt(int64(f.Hash)),
					sqltypes.NewText(f.Text),
					sqltypes.NewText(f.Reason),
					sqltypes.NewBool(f.Manual),
					sqltypes.NewInt(f.Since.UnixMicro()),
					sqltypes.NewInt(now.Sub(f.Since).Microseconds()),
					sqltypes.NewInt(expires),
					sqltypes.NewInt(f.Samples),
				}
			})
		},
	},
	{
		// The audit trail of the apply state machine: one row per action
		// state transition, seq monotone within one applier lifetime.
		Name: "actions",
		Columns: []Column{Int("seq"), Int("action_id"), Text("kind", 32), Text("target", 64),
			Text("sql_text", textMax), Text("state", 16), Int("baseline_us"), Int("observed_us"),
			Float("delta_pct"), Int("samples"), Int("at_us"), Text("detail", textMax)},
		Provider: func(src *Sources) []sqltypes.Row {
			if src.Actions == nil {
				return nil
			}
			return each(src.Actions(), func(r ActionRow) sqltypes.Row {
				return sqltypes.Row{
					sqltypes.NewInt(r.Seq),
					sqltypes.NewInt(r.ActionID),
					sqltypes.NewText(r.Kind),
					sqltypes.NewText(r.Target),
					sqltypes.NewText(r.SQL),
					sqltypes.NewText(r.State),
					sqltypes.NewInt(r.Baseline),
					sqltypes.NewInt(r.Observed),
					sqltypes.NewFloat(r.DeltaPct),
					sqltypes.NewInt(r.Samples),
					sqltypes.NewInt(r.AtUs),
					sqltypes.NewText(r.Detail),
				}
			})
		},
		Persist: Persist{After, []string{"seq"}},
	},
	{
		// Phase-2 wait attribution: one row per flagged statement with
		// cumulative nanoseconds per wait class (counter semantics, like
		// latency). Statements without committed samples are not persisted.
		Name: "waits",
		Columns: []Column{Int("hash"), Text("query_text", textMax), Text("reason", 16), Int("samples"),
			Int("wall_ns"), Int("exec_ns"), Int("lock_ns"), Int("io_ns"), Int("fsync_ns"), Int("pinwait_ns")},
		Provider: func(src *Sources) []sqltypes.Row {
			return each(src.Mon.SnapshotFlags(), func(f monitor.FlaggedStatement) sqltypes.Row {
				return sqltypes.Row{
					sqltypes.NewInt(int64(f.Hash)),
					sqltypes.NewText(f.Text),
					sqltypes.NewText(f.Reason),
					sqltypes.NewInt(f.Samples),
					sqltypes.NewInt(f.Waits.WallNs),
					sqltypes.NewInt(f.Waits.ExecNs),
					sqltypes.NewInt(f.Waits.LockNs),
					sqltypes.NewInt(f.Waits.IONs),
					sqltypes.NewInt(f.Waits.FsyncNs),
					sqltypes.NewInt(f.Waits.PinWaitNs),
				}
			})
		},
		Persist: Persist{Nonzero, []string{"samples"}},
	},
	scalar("mvcc", MvccCounters, func(src *Sources) engine.MvccStats { return src.DB.MvccStats() }),
}

// each maps a snapshot to rows, one per item.
func each[T any](items []T, row func(T) sqltypes.Row) []sqltypes.Row {
	rows := make([]sqltypes.Row, 0, len(items))
	for _, it := range items {
		rows = append(rows, row(it))
	}
	return rows
}

// workloadRow converts a workload entry to its relation row.
func workloadRow(w monitor.WorkloadEntry) sqltypes.Row {
	return sqltypes.Row{
		sqltypes.NewInt(int64(w.Hash)),
		sqltypes.NewInt(w.Start.UnixMicro()),
		sqltypes.NewInt(w.Wall.Microseconds()),
		sqltypes.NewInt(w.OptTime.Microseconds()),
		sqltypes.NewInt(w.ExecCPU),
		sqltypes.NewInt(w.ExecIO),
		sqltypes.NewFloat(w.EstCPU),
		sqltypes.NewFloat(w.EstIO),
		sqltypes.NewFloat(w.EstRows),
		sqltypes.NewInt(w.Rows),
		sqltypes.NewInt(w.MonNanos),
		sqltypes.NewInt(w.Errors),
		sqltypes.NewInt(w.Executions),
	}
}

// latencyRows emits one row per non-empty histogram bucket.
func latencyRows(rows []sqltypes.Row, scope string, hash uint64, c *monitor.LatencyCounts) []sqltypes.Row {
	for b, n := range c {
		if n == 0 {
			continue
		}
		lo, hi := monitor.LatencyBucketBounds(b)
		rows = append(rows, sqltypes.Row{
			sqltypes.NewText(scope),
			sqltypes.NewInt(int64(hash)),
			sqltypes.NewInt(int64(b)),
			sqltypes.NewInt(int64(lo)),
			sqltypes.NewInt(int64(hi)),
			sqltypes.NewInt(n),
		})
	}
	return rows
}

// Counter is one scalar sensor of a single-row relation: its column
// and, when Metric is set, its /metrics series. T is the reading the
// relation samples once per row.
type Counter[T any] struct {
	Column string
	Live   bool    // live-only column (see Column.Live)
	Metric string  // full series name; "" = not exported by EngineSource
	Help   string  // series help text
	Gauge  bool    // series kind: gauge instead of counter
	Div    float64 // series value = raw / Div (unit conversion); 0 = raw
	Get    func(*T) int64
}

// scalar builds the single-row relation over a counter table.
func scalar[T any](name string, counters []Counter[T], read func(*Sources) T) Relation {
	cols := make([]Column, len(counters))
	for i, c := range counters {
		cols[i] = Column{Name: c.Column, Type: sqltypes.Int, Live: c.Live}
	}
	return Relation{
		Name:    name,
		Columns: cols,
		Provider: func(src *Sources) []sqltypes.Row {
			r := read(src)
			row := make(sqltypes.Row, len(counters))
			for i, c := range counters {
				row[i] = sqltypes.NewInt(c.Get(&r))
			}
			return []sqltypes.Row{row}
		},
		Persist: Persist{Rule: All},
	}
}

// SystemReading is one sample behind a statistics row: the engine-wide
// counters plus the tuning loop's own health.
type SystemReading struct {
	engine.SystemStats
	Collector     CollectorHealth
	ApplyFailures int64
}

// SystemCounters defines ima_statistics, ws_statistics and the
// engine_* series. Persisted columns keep their ws_statistics
// position: new counters are appended, never inserted, so workload
// databases created by older builds stay insertable by position.
var SystemCounters = []Counter[SystemReading]{
	{Column: "current_sessions", Metric: "engine_sessions_current", Help: "Open sessions.", Gauge: true, Get: func(r *SystemReading) int64 { return r.CurrentSessions }},
	{Column: "peak_sessions", Metric: "engine_sessions_peak", Help: "Peak concurrent sessions.", Gauge: true, Get: func(r *SystemReading) int64 { return r.PeakSessions }},
	{Column: "statements", Metric: "engine_statements_total", Help: "Statements executed.", Get: func(r *SystemReading) int64 { return r.Statements }},
	{Column: "locks_held", Metric: "engine_locks_held", Help: "Locks currently held: row locks, statement write gates and tables under DDL (readers hold none).", Gauge: true, Get: func(r *SystemReading) int64 { return r.LocksHeld }},
	{Column: "lock_waits", Metric: "engine_lock_waits_total", Help: "Lock acquisitions that waited, waits for a DDL included.", Get: func(r *SystemReading) int64 { return r.LockWaits }},
	{Column: "lock_wait_nanos", Live: true, Metric: "engine_lock_wait_seconds_total", Help: "Wallclock seconds sessions spent parked on lock queues or behind DDL.", Div: 1e9, Get: func(r *SystemReading) int64 { return r.LockWaitNanos }},
	{Column: "deadlocks", Metric: "engine_deadlocks_total", Help: "Deadlocks detected.", Get: func(r *SystemReading) int64 { return r.Deadlocks }},
	{Column: "cache_hits", Metric: "engine_cache_hits_total", Help: "Buffer pool hits.", Get: func(r *SystemReading) int64 { return r.CacheHits }},
	{Column: "cache_misses", Metric: "engine_cache_misses_total", Help: "Buffer pool misses.", Get: func(r *SystemReading) int64 { return r.CacheMisses }},
	{Column: "disk_reads", Metric: "engine_disk_reads_total", Help: "Pages read from disk.", Get: func(r *SystemReading) int64 { return r.DiskReads }},
	{Column: "disk_writes", Metric: "engine_disk_writes_total", Help: "Pages written to disk.", Get: func(r *SystemReading) int64 { return r.DiskWrites }},
	{Column: "db_bytes", Metric: "engine_db_bytes", Help: "Database size on disk in bytes.", Gauge: true, Get: func(r *SystemReading) int64 { return r.DBBytes }},
	// The storage daemon's own health, so collector degradation is
	// trendable in the persisted series (/metrics has them as daemon_*).
	{Column: "poll_errors", Get: func(r *SystemReading) int64 { return r.Collector.PollErrors }},
	{Column: "retries", Get: func(r *SystemReading) int64 { return r.Collector.Retries }},
	{Column: "carryover_depth", Get: func(r *SystemReading) int64 { return r.Collector.CarryoverDepth }},
	{Column: "alert_errors", Get: func(r *SystemReading) int64 { return r.Collector.AlertErrors }},
	{Column: "cache_evictions", Metric: "engine_cache_evictions_total", Help: "Buffer pool frames evicted to make room.", Get: func(r *SystemReading) int64 { return r.CacheEvictions }},
	{Column: "cache_resident", Metric: "engine_cache_resident", Help: "Pages currently cached in the buffer pool.", Gauge: true, Get: func(r *SystemReading) int64 { return r.CacheResident }},
	{Column: "pin_waits", Metric: "engine_cache_pin_waits_total", Help: "Backpressure waits on a fully pinned pool shard.", Get: func(r *SystemReading) int64 { return r.PinWaits }},
	{Column: "wal_bytes", Metric: "engine_wal_bytes_total", Help: "Bytes appended to the write-ahead log.", Get: func(r *SystemReading) int64 { return r.WALBytes }},
	{Column: "wal_fsyncs", Metric: "engine_wal_fsyncs_total", Help: "WAL fsyncs issued (group commit amortizes these).", Get: func(r *SystemReading) int64 { return r.WALFsyncs }},
	{Column: "redo_records", Metric: "engine_redo_records", Help: "WAL records replayed (redo + undo) by crash recovery at the last open.", Gauge: true, Get: func(r *SystemReading) int64 { return r.RedoRecords }},
	{Column: "redo_nanos", Metric: "engine_redo_nanos", Help: "Wallclock nanoseconds of the last crash-recovery pass.", Gauge: true, Get: func(r *SystemReading) int64 { return r.RedoNanos }},
	// The analyzer's count of recommendations whose execution failed
	// (/metrics has it as engine_tuning_apply_failures_total).
	{Column: "apply_failures", Get: func(r *SystemReading) int64 { return r.ApplyFailures }},
	{Column: "parallel_queries", Metric: "engine_parallel_queries_total", Help: "Statements that ran a morsel-parallel plan subtree.", Get: func(r *SystemReading) int64 { return r.ParallelQueries }},
	{Column: "morsels_dispatched", Metric: "engine_parallel_morsels_total", Help: "Heap-page morsels dispatched to parallel scan workers.", Get: func(r *SystemReading) int64 { return r.MorselsDispatched }},
	{Column: "parallel_worker_nanos", Metric: "engine_parallel_worker_seconds_total", Help: "Summed wall time of parallel scan workers in seconds.", Div: 1e9, Get: func(r *SystemReading) int64 { return r.ParallelWorkerNanos }},
	// The prepared-statement cache; its hits are statements - misses.
	{Column: "stmt_cache_misses", Metric: "engine_stmt_cache_misses_total", Help: "Statements that ran the parser instead of a cached prepared statement.", Get: func(r *SystemReading) int64 { return r.StmtCacheMisses }},
	{Column: "stmt_cache_evictions", Metric: "engine_stmt_cache_evictions_total", Help: "Prepared statements dropped from the cache for capacity.", Get: func(r *SystemReading) int64 { return r.StmtCacheEvictions }},
	{Column: "stmt_cache_invalidations", Metric: "engine_stmt_cache_invalidations_total", Help: "Times DDL or new statistics dropped the whole prepared-statement cache.", Get: func(r *SystemReading) int64 { return r.StmtCacheInvalidations }},
	{Column: "stmt_cache_stale_reparses", Metric: "engine_stmt_cache_stale_reparses_total", Help: "Cache hits re-parsed once admitted because DDL overtook them.", Get: func(r *SystemReading) int64 { return r.StmtCacheStaleReparses }},
}

// MvccCounters defines ima_mvcc, ws_mvcc and the engine_mvcc_* series:
// snapshot-isolation health, cumulative counters and instantaneous
// gauges.
var MvccCounters = []Counter[engine.MvccStats]{
	{Column: "txn_begins", Metric: "engine_mvcc_txn_begins_total", Help: "MVCC transactions begun.", Get: func(r *engine.MvccStats) int64 { return r.TxnBegins }},
	{Column: "txn_commits", Metric: "engine_mvcc_txn_commits_total", Help: "MVCC transactions committed.", Get: func(r *engine.MvccStats) int64 { return r.TxnCommits }},
	{Column: "txn_aborts", Metric: "engine_mvcc_txn_aborts_total", Help: "MVCC transactions aborted (rollbacks, errors, conflicts).", Get: func(r *engine.MvccStats) int64 { return r.TxnAborts }},
	{Column: "write_conflicts", Metric: "engine_mvcc_write_conflicts_total", Help: "First-updater-wins write conflicts raised.", Get: func(r *engine.MvccStats) int64 { return r.WriteConflicts }},
	{Column: "inflight_txns", Metric: "engine_mvcc_inflight_txns", Help: "MVCC transactions currently open.", Gauge: true, Get: func(r *engine.MvccStats) int64 { return r.InflightTxns }},
	{Column: "active_snapshots", Metric: "engine_mvcc_active_snapshots", Help: "Snapshots currently pinned by sessions.", Gauge: true, Get: func(r *engine.MvccStats) int64 { return r.ActiveSnapshots }},
	{Column: "aborted_ids", Metric: "engine_mvcc_aborted_ids", Help: "Aborted transaction ids not yet retired by vacuum.", Gauge: true, Get: func(r *engine.MvccStats) int64 { return r.AbortedIDs }},
	{Column: "oldest_snapshot_ns", Metric: "engine_mvcc_oldest_snapshot_ns", Help: "Age of the oldest active snapshot in nanoseconds (vacuum horizon lag).", Gauge: true, Get: func(r *engine.MvccStats) int64 { return r.OldestSnapshotNanos }},
	{Column: "vacuum_runs", Metric: "engine_mvcc_vacuum_runs_total", Help: "Vacuum passes completed.", Get: func(r *engine.MvccStats) int64 { return r.VacuumRuns }},
	{Column: "vacuum_reclaimed", Metric: "engine_mvcc_vacuum_reclaimed_total", Help: "Dead row versions reclaimed by vacuum.", Get: func(r *engine.MvccStats) int64 { return r.VacuumReclaimed }},
	{Column: "vacuum_cleared", Metric: "engine_mvcc_vacuum_cleared_total", Help: "Aborted xmax stamps cleared by vacuum.", Get: func(r *engine.MvccStats) int64 { return r.VacuumCleared }},
	{Column: "retired_ids", Metric: "engine_mvcc_retired_ids_total", Help: "Aborted transaction ids retired after vacuum proved them unreferenced.", Get: func(r *engine.MvccStats) int64 { return r.RetiredIDs }},
	{Column: "chain_len_p95", Metric: "engine_mvcc_chain_len_p95", Help: "p95 surviving version-chain length at the last vacuum pass.", Gauge: true, Get: func(r *engine.MvccStats) int64 { return r.ChainLenP95 }},
}
