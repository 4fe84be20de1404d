// Package ima reproduces the Ingres Management Architecture: every
// class of in-memory monitoring objects is registered as a virtual
// table in the database, so the monitor's ring buffers become readable
// over plain SQL — no extra protocol, no disk access (the data lives
// only in main memory until the storage daemon persists it).
//
// Every relation is declared once, in relations.go; the virtual tables
// here, the ws_* workload tables, the storage daemon's copy and the
// engine's /metrics series are all derived from that registry. The
// table set, in registry order (the first seven mirror the paper's
// Figure 3; * marks relations the daemon persists as ws_<name>):
//
//	ima_statements* — statement shapes keyed by digest, one sample text each
//	ima_workload*   — execution history with estimated vs. actual costs
//	ima_references* — statement → object (table/attribute/index) usage
//	ima_tables*     — per-table frequency and physical state
//	ima_attributes* — per-attribute frequency and histogram presence
//	ima_indexes*    — per-index frequency (catalog ∪ used names, sorted)
//	ima_statistics* — system-wide statistics (sessions, locks, cache,
//	                  WAL, parallelism) plus collector and apply health
//	ima_latency*    — log-bucketed latency histograms (global wallclock
//	                  and optimize-time; per-statement wallclock live only)
//	ima_spans       — per-operator spans of recent EXPLAIN ANALYZE
//	                  traces, estimated vs. actual
//	ima_health      — self-observability counters of the monitor, the
//	                  engine and the storage daemon (Sources.Health)
//	ima_flags       — the phase-2 flag set: which statements are under
//	                  deep wait attribution, why, and since when
//	ima_actions*    — audit trail of the analyzer's apply state machine
//	ima_waits*      — per-flagged-statement wait-state breakdown
//	                  (exec / lock / io / fsync / pinwait vs. wall)
//	ima_mvcc*       — snapshot-isolation health: txn begin/commit/abort
//	                  counters, write conflicts, oldest snapshot age,
//	                  vacuum reclaim progress and version-chain length
package ima

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/monitor"
	"repro/internal/sqltypes"
)

// Sources are the live objects the relations read. DB and Mon are
// required; a nil hook leaves its columns zero (or its relation empty).
type Sources struct {
	DB  *engine.DB
	Mon *monitor.Monitor
	// Actions returns the analyzer applier's audit trail, oldest first.
	Actions func() []ActionRow
	// ApplyFailures counts recommendations whose execution failed.
	ApplyFailures func() int64
	// Collector samples the storage daemon's own health counters.
	Collector func() CollectorHealth
	// Health gathers ima_health; nil serves MonitorHealth(Mon).
	Health func() []HealthMetric
	// Cut, when set, is the monitor state the relations read instead of
	// locking the monitor once each: the storage daemon takes one
	// consistent Mon.Snapshot per poll, and persists from it.
	Cut *monitor.Snapshot
}

func (s *Sources) statements() []monitor.StatementInfo {
	if s.Cut != nil {
		return s.Cut.Statements
	}
	return s.Mon.SnapshotStatements()
}

func (s *Sources) workload() []monitor.WorkloadEntry {
	if s.Cut != nil {
		return s.Cut.Workload
	}
	return s.Mon.SnapshotWorkload()
}

func (s *Sources) references() []monitor.Reference {
	if s.Cut != nil {
		return s.Cut.References
	}
	return s.Mon.SnapshotReferences()
}

func (s *Sources) frequencies() (table, attr, index map[string]int64) {
	if s.Cut != nil {
		return s.Cut.TableFreq, s.Cut.AttrFreq, s.Cut.IndexFreq
	}
	return s.Mon.SnapshotFrequencies()
}

// CollectorHealth is the storage daemon's self-observability sample
// behind the collector columns of the statistics relation.
type CollectorHealth struct {
	PollErrors, Retries, CarryoverDepth, AlertErrors int64
}

// System samples the statistics relation's reading.
func (s *Sources) System() SystemReading {
	r := SystemReading{SystemStats: s.DB.Stats()}
	if s.Collector != nil {
		r.Collector = s.Collector()
	}
	if s.ApplyFailures != nil {
		r.ApplyFailures = s.ApplyFailures()
	}
	return r
}

// Register installs every relation of the registry as the virtual
// table ima_<name> on src.DB.
func Register(src Sources) error {
	if src.DB == nil || src.Mon == nil {
		return fmt.Errorf("ima: database and monitor are required")
	}
	for i := range Relations {
		rel := &Relations[i]
		cols := make([]sqltypes.Column, len(rel.Columns))
		for j, c := range rel.Columns {
			cols[j] = sqltypes.Column{Name: c.Name, Type: c.Type}
		}
		provider := func() []sqltypes.Row {
			rows := rel.Rows(&src)
			if rel.LiveRows != nil {
				rows = append(rows, rel.bound(rel.LiveRows(&src))...)
			}
			return rows
		}
		if err := src.DB.RegisterVirtual(rel.LiveName(), sqltypes.NewSchema(cols...), provider); err != nil {
			return err
		}
	}
	return nil
}

// Persisted lists the registry's relations that have a persist rule,
// in registry order: the ws_ tables.
func Persisted() []*Relation {
	var out []*Relation
	for i := range Relations {
		if Relations[i].Persist.Rule != LiveOnly {
			out = append(out, &Relations[i])
		}
	}
	return out
}

// LiveName and StoreName are the relation's virtual-table and
// workload-table names.
func (r *Relation) LiveName() string  { return "ima_" + r.Name }
func (r *Relation) StoreName() string { return "ws_" + r.Name }

// Rows reads the rows the relation's persist rule chooses from (all
// of ima_<Name> but its LiveRows).
func (r *Relation) Rows(src *Sources) []sqltypes.Row { return r.bound(r.Provider(src)) }

// bound cuts every Text value to its column width — the one place
// monitoring text is bounded.
func (r *Relation) bound(rows []sqltypes.Row) []sqltypes.Row {
	for j, c := range r.Columns {
		if c.Width == 0 {
			continue
		}
		for _, row := range rows {
			if len(row[j].S) > c.Width {
				row[j].S = sqltypes.TruncateUTF8(row[j].S, c.Width)
			}
		}
	}
	return rows
}

// HealthMetric is one row of the ima_health virtual table: a named
// self-observability counter of a monitoring component.
type HealthMetric struct {
	Component string // "monitor", "daemon", ...
	Metric    string
	Value     float64
}

// MonitorHealth returns the monitor's own counters in ima_health form:
// the table's whole content when Sources.Health is not wired.
func MonitorHealth(mon *monitor.Monitor) []HealthMetric {
	return []HealthMetric{
		{"monitor", "statements_total", float64(mon.TotalStatements())},
		{"monitor", "sensor_seconds_total", mon.TotalMonitorTime().Seconds()},
		{"monitor", "distinct_statements", float64(mon.StatementCount())},
		{"monitor", "evicted_statements_total", float64(mon.EvictedStatements())},
		{"monitor", "workload_depth", float64(mon.WorkloadDepth())},           // evicted entries still holding sums
		{"monitor", "workload_dropped_total", float64(mon.WorkloadDropped())}, // executions, not entries
		{"monitor", "traces_buffered", float64(mon.TraceCount())},
		{"monitor", "flagged_statements", float64(mon.FlagCount())},
		{"monitor", "phase2_seconds_total", mon.Phase2Overhead().Seconds()},
		{"monitor", "publish_seconds_total", mon.PublishTime().Seconds()},
	}
}
