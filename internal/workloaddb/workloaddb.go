// Package workloaddb defines the persistent workload database: a
// native database (in the same engine) holding timestamped copies of
// the IMA tables, appended by the storage daemon. Because it is an
// ordinary database, "handling the collected data is most simple and
// can be done with standard SQL" — the analyzer and the alerting rules
// run plain queries against it.
package workloaddb

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/ima"
	"repro/internal/sqltypes"
)

// Names of the workload tables consumers query. Each is "ws_" plus the
// name of a persisted relation of the ima registry, which defines its
// columns; every table leads with ts_us, the poll timestamp in unix
// microseconds, enabling the trend analysis the paper collects data for.
const (
	Statements = "ws_statements"
	Workload   = "ws_workload"
	References = "ws_references"
	Tables     = "ws_tables"
	Attributes = "ws_attributes"
	Indexes    = "ws_indexes"
	Statistics = "ws_statistics"
	Latency    = "ws_latency"
	Actions    = "ws_actions"
	Stages     = "ws_stages"
	Mvcc       = "ws_mvcc"
)

// AllTables lists every workload table, for pruning and reporting.
func AllTables() []string {
	var names []string
	for _, r := range ima.Persisted() {
		names = append(names, r.StoreName())
	}
	return names
}

// ddl derives a workload table from its relation: ts_us followed by
// the persisted columns. Columns are only ever appended to a relation,
// so a workload database created by an older build stays insertable.
func ddl(r *ima.Relation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE TABLE IF NOT EXISTS %s (ts_us BIGINT", r.StoreName())
	for _, c := range r.Columns {
		if c.Live {
			continue
		}
		switch c.Type {
		case sqltypes.Text:
			fmt.Fprintf(&b, ", %s VARCHAR(%d)", c.Name, c.Width)
		case sqltypes.Float:
			fmt.Fprintf(&b, ", %s FLOAT", c.Name)
		default:
			fmt.Fprintf(&b, ", %s BIGINT", c.Name)
		}
	}
	b.WriteByte(')')
	return b.String()
}

// EnsureSchema creates the workload tables if they do not exist.
func EnsureSchema(db *engine.DB) error {
	s := db.NewSession()
	defer s.Close()
	for _, r := range ima.Persisted() {
		if _, err := s.Exec(ddl(r)); err != nil {
			return fmt.Errorf("workloaddb: %w", err)
		}
	}
	return nil
}

// Prune deletes rows older than the retention window from every table.
// It returns the number of rows removed.
func Prune(db *engine.DB, retention time.Duration, now time.Time) (int64, error) {
	cutoff := now.Add(-retention).UnixMicro()
	s := db.NewSession()
	defer s.Close()
	var removed int64
	for _, t := range AllTables() {
		res, err := s.Exec(fmt.Sprintf("DELETE FROM %s WHERE ts_us < %d", t, cutoff))
		if err != nil {
			return removed, fmt.Errorf("workloaddb: prune %s: %w", t, err)
		}
		removed += res.RowsAffected
	}
	return removed, nil
}
