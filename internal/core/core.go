// Package core wires the paper's complete system together: the DBMS
// engine with the integrated monitor compiled in, the IMA virtual
// tables, the storage daemon with its workload database, and the
// analyzer — the full auto-tuning control loop of Figure 1
// (monitoring → storing → analysing → implementing).
//
// It is the top-level API the examples and command-line tools use:
//
//	sys, _ := core.Open(core.Options{Dir: "/tmp/mydb"})
//	defer sys.Close()
//	sess := sys.Session()
//	sess.Exec("CREATE TABLE t (a INTEGER PRIMARY KEY)")
//	...
//	sys.Poll()                   // persist monitoring data
//	report, _ := sys.Analyze()   // recommendations
//	sys.Apply(report)            // implement them
package core

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/analyzer"
	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/ima"
	"repro/internal/monitor"
	"repro/internal/telemetry"
)

// Options configures an integrated system.
type Options struct {
	// Dir is the base directory; the monitored database lives in
	// Dir/db and the workload database in Dir/workloaddb.
	Dir string
	// PoolPages sizes the engine buffer pool (default 2048).
	PoolPages int
	// DaemonInterval is the storage daemon polling period
	// (default 30 s).
	DaemonInterval time.Duration
	// Retention is the workload DB retention window (default 7 days).
	Retention time.Duration
	// Alerts are threshold rules the daemon evaluates after each poll.
	Alerts []daemon.Alert
	// Apply holds the test seams of the canary/observe/rollback state
	// machine behind ApplyOnline (5 s windows, p95, 25% regression
	// threshold); the zero value observes the monitor in real time.
	Apply analyzer.ApplyConfig
	// Logf receives daemon diagnostics: transient poll failures, retry
	// scheduling, alert errors. nil discards them.
	Logf func(format string, args ...any)
}

// System is the integrated monitored DBMS.
type System struct {
	DB         *engine.DB
	Monitor    *monitor.Monitor
	WorkloadDB *engine.DB
	Daemon     *daemon.Daemon
	Analyzer   *analyzer.Analyzer
	// Applier executes recommendations through the canary/observe/
	// rollback state machine; its audit trail backs ima_actions and
	// ws_actions.
	Applier *analyzer.Applier
	// Telemetry gathers monitor, engine and daemon metrics; serve it
	// over HTTP with telemetry.Serve, or scrape it in-process. The
	// same samples back the ima_health virtual table.
	Telemetry *telemetry.Registry
}

// Open builds the system in opts.Dir.
func Open(opts Options) (*System, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("core: Options.Dir is required")
	}
	sys := &System{Monitor: monitor.New(monitor.Config{})}
	db, err := engine.Open(engine.Config{
		Dir:       filepath.Join(opts.Dir, "db"),
		PoolPages: opts.PoolPages,
		Monitor:   sys.Monitor,
	})
	if err != nil {
		return nil, err
	}
	sys.DB = db
	wdb, err := engine.Open(engine.Config{
		Dir:       filepath.Join(opts.Dir, "workloaddb"),
		PoolPages: 512,
	})
	if err != nil {
		db.Close()
		return nil, err
	}
	sys.WorkloadDB = wdb
	an, err := analyzer.New(analyzer.Config{Source: db, WorkloadDB: wdb})
	if err != nil {
		db.Close()
		wdb.Close()
		return nil, err
	}
	sys.Analyzer = an
	ap := an.NewApplier(opts.Apply)
	sys.Applier = ap
	d, err := daemon.New(daemon.Config{
		Source:        db,
		Mon:           sys.Monitor,
		Target:        wdb,
		Interval:      opts.DaemonInterval,
		Retention:     opts.Retention,
		Alerts:        opts.Alerts,
		Actions:       ap.ActionRows,
		ApplyFailures: an.ApplyFailures,
		Logf:          opts.Logf,
	})
	if err != nil {
		db.Close()
		wdb.Close()
		return nil, err
	}
	sys.Daemon = d

	// Telemetry plane: one registry over every component, served on
	// demand by the commands and mirrored into ima_health so the same
	// counters are queryable over SQL (labelled histogram series stay
	// on /metrics; SQL reads ima_latency instead).
	reg := telemetry.NewRegistry()
	reg.Register("monitor", telemetry.MonitorSource(sys.Monitor))
	reg.Register("engine", telemetry.EngineSource(db))
	reg.Register("daemon", telemetry.DaemonSource(d))
	reg.Register("tuning", telemetry.TuningSource(an, ap, db))
	sys.Telemetry = reg

	// IMA last: its relations read every component built above.
	err = ima.Register(ima.Sources{
		DB:            db,
		Mon:           sys.Monitor,
		Actions:       ap.ActionRows,
		ApplyFailures: an.ApplyFailures,
		Collector:     d.Health,
		Health: func() []ima.HealthMetric {
			var hm []ima.HealthMetric
			for _, s := range reg.Gather() {
				if len(s.Labels) > 0 {
					continue
				}
				hm = append(hm, ima.HealthMetric{Component: s.Component, Metric: s.Name, Value: s.Value})
			}
			return hm
		},
	})
	if err != nil {
		db.Close()
		wdb.Close()
		return nil, err
	}
	return sys, nil
}

// Session opens a session on the monitored database.
func (s *System) Session() *engine.Session { return s.DB.NewSession() }

// Poll runs one storage-daemon collection cycle immediately.
func (s *System) Poll() error {
	return s.Daemon.Poll()
}

// RunDaemon runs the storage daemon until the context is cancelled.
func (s *System) RunDaemon(ctx context.Context) error {
	return s.Daemon.Run(ctx)
}

// Analyze scans the collected data and returns recommendations.
func (s *System) Analyze() (*analyzer.Report, error) {
	return s.Analyzer.Analyze()
}

// Apply implements a report's recommendations on the database.
func (s *System) Apply(rep *analyzer.Report, kinds ...analyzer.Kind) error {
	return s.Analyzer.Apply(rep, kinds...)
}

// ApplyOnline implements a report's recommendations through the
// canary/observe/rollback state machine: index builds run as written
// (every CREATE INDEX builds under concurrent DML), buffer-pool recommendations become live resizes, and
// actions whose canary window shows a tail-latency regression are
// rolled back automatically. The audit trail is queryable as
// ima_actions and persisted to ws_actions.
func (s *System) ApplyOnline(rep *analyzer.Report, kinds ...analyzer.Kind) error {
	return s.Applier.ApplyOnline(rep, kinds...)
}

// Close shuts down both databases.
func (s *System) Close() error {
	var firstErr error
	if s.DB != nil {
		if err := s.DB.Close(); err != nil {
			firstErr = err
		}
	}
	if s.WorkloadDB != nil {
		if err := s.WorkloadDB.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
