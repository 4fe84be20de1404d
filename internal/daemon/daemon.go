// Package daemon implements the storage daemon: a lightweight
// background collector that periodically reads the monitoring data out
// of the DBMS and appends it, timestamped, to the persistent workload
// database. Disk is touched only on the daemon's schedule — "disk
// accesses are performed only every few minutes instead of with every
// executed statement".
//
// The daemon also implements the paper's active alerting: after each
// poll it evaluates user-defined threshold rules (plain SQL against
// the workload DB or the live IMA tables) and notifies the DBA.
//
// # Failure model
//
// The daemon must run unattended for the full retention window, so the
// collection pipeline is fault-tolerant end to end:
//
//   - Errors are classified transient or fatal. Everything the target
//     database can produce at runtime is treated as transient; only
//     errors wrapped with Fatal (or context cancellation) terminate
//     Run. Transient poll failures are retried with capped exponential
//     backoff instead of killing the loop.
//   - Workload sums leave the monitor only by landing: each poll reads
//     them in its cut, and the cursor subtracts the rows whose insert
//     succeeded. A failed insert leaves the rest in their statement
//     entries for the next poll, so each execution lands exactly once
//     and the daemon holds no queue of its own. While the target stays
//     down, the monitor bounds what waits (see Monitor.WorkloadDropped).
//   - Alert evaluation is isolated: one bad alert query or operator is
//     logged and counted (AlertErrors) without aborting the poll or
//     starving the remaining alerts.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/ima"
	"repro/internal/monitor"
	"repro/internal/sqltypes"
	"repro/internal/workloaddb"
)

// DefaultInterval matches the prototype's polling cadence: "collecting
// up to 1000 statements within an interval of 30 seconds has proven to
// be enough".
const DefaultInterval = 30 * time.Second

// DefaultRetention keeps "the workload of a typical work week".
const DefaultRetention = 7 * 24 * time.Hour

// Defaults for the fault-tolerance knobs.
const (
	// DefaultRetryBase is the first retry delay after a transient poll
	// failure; each consecutive failure doubles it up to RetryMax.
	DefaultRetryBase = 250 * time.Millisecond
	// DefaultRetryMax caps the exponential backoff.
	DefaultRetryMax = 30 * time.Second
	// DefaultRefCacheCap bounds the reference dedup set.
	DefaultRefCacheCap = 100000
)

// FatalError wraps an error that must terminate Run. Everything else
// is transient: Run logs it, backs off and retries.
type FatalError struct{ Err error }

func (e *FatalError) Error() string { return "daemon: fatal: " + e.Err.Error() }
func (e *FatalError) Unwrap() error { return e.Err }

// Fatal marks err as fatal to the daemon loop.
func Fatal(err error) error {
	if err == nil {
		return nil
	}
	return &FatalError{Err: err}
}

// IsFatal reports whether err (anywhere in its tree) demands that the
// daemon loop stop: an explicit FatalError or a context cancellation.
func IsFatal(err error) bool {
	var fe *FatalError
	return errors.As(err, &fe) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Alert is a threshold rule evaluated after every poll. Query must
// return at least one row; its first column is compared against
// Threshold with Op. Matching fires Action.
type Alert struct {
	Name      string
	Query     string // run against the source DB (IMA) — plain SQL
	Op        string // ">", ">=", "<", "<=", "="
	Threshold float64
	Action    func(Event)
}

// Event describes a fired alert.
type Event struct {
	Alert string
	Value float64
	When  time.Time
}

// Config wires a daemon.
type Config struct {
	// Source is the monitored database (must have IMA registered).
	Source *engine.DB
	// Mon is the source's monitor; the daemon reads one snapshot of it
	// per poll directly — the in-core collection variant of §IV-B.
	Mon *monitor.Monitor
	// Target is the workload database.
	Target *engine.DB
	// Interval between polls (default 30 s).
	Interval time.Duration
	// Retention window (default 7 days).
	Retention time.Duration
	// Alerts to evaluate after each poll.
	Alerts []Alert
	// RetryBase is the first backoff delay after a transient poll
	// failure (default DefaultRetryBase).
	RetryBase time.Duration
	// RetryMax caps the backoff (default DefaultRetryMax).
	RetryMax time.Duration
	// RefCacheCap bounds the dedup memory of persist-once relations
	// (ws_references); the oldest keys are evicted first (default
	// DefaultRefCacheCap).
	RefCacheCap int
	// Actions, when set, returns the analyzer applier's audit trail;
	// rows with Seq beyond the daemon's watermark are persisted into
	// ws_actions each poll.
	Actions func() []ima.ActionRow
	// ApplyFailures, when set, supplies the apply_failures column of
	// ws_statistics (the analyzer's count of recommendations whose
	// execution failed).
	ApplyFailures func() int64
	// Flagger, when set, runs one adaptive-monitoring evaluation per
	// poll: statements whose interval tail latency misbehaves are
	// flagged into phase-2 wait attribution, and stale flags expire.
	// The resulting breakdowns are persisted into ws_waits.
	Flagger *monitor.Flagger
	// DisableVacuum turns off the MVCC garbage-collection pass that
	// otherwise rides every poll (one engine.Vacuum over the source).
	DisableVacuum bool
	// Logf receives diagnostics: transient poll failures, retry
	// scheduling, alert errors. nil discards them.
	Logf func(format string, args ...any)
	// Now overrides the clock (tests).
	Now func() time.Time
}

// Stats reports daemon activity.
type Stats struct {
	Polls        int64
	RowsAppended int64
	RowsPruned   int64
	AlertsFired  int64
	// LastPoll is the start time of the most recent poll attempt; the
	// zero time until the first poll runs.
	LastPoll time.Time

	// Fault-tolerance counters.
	PollErrors     int64 // polls that returned a (transient) error
	Retries        int64 // backoff-scheduled retry polls executed by Run
	AlertErrors    int64 // alert evaluations that failed (query or operator)
	CarryoverDepth int64 // workload rows the last poll selected but did not land
	CarryoverDrops int64 // always 0: the daemon keeps nothing it could drop
}

// execTarget is the daemon's write surface to the workload DB. In
// production it is a fresh engine session per poll; tests substitute a
// fault-injecting wrapper to exercise the recovery paths.
type execTarget interface {
	Exec(sql string) (*engine.Result, error)
	Close()
}

// Daemon persists monitoring data on a schedule.
type Daemon struct {
	cfg       Config
	newTarget func() execTarget
	logf      func(format string, args ...any)

	// The copy loop's view of the registry: what the relations read
	// from and one cursor per persisted relation, in registry order.
	src     ima.Sources
	cursors []*ima.Cursor

	// mu is held while a poll collects: two polls would select the same
	// rows before either acknowledged them, and persist them twice.
	mu        sync.Mutex
	lastPrune time.Time

	polls       atomic.Int64
	appended    atomic.Int64
	pruned      atomic.Int64
	fired       atomic.Int64
	lastPoll    atomic.Int64 // unix micro; 0 = never polled
	pollErrors  atomic.Int64
	retries     atomic.Int64
	alertErrors atomic.Int64
	carryDepth  atomic.Int64
}

// New validates the config and builds a daemon.
func New(cfg Config) (*Daemon, error) {
	if cfg.Source == nil || cfg.Target == nil || cfg.Mon == nil {
		return nil, fmt.Errorf("daemon: Source, Target and Mon are required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Retention <= 0 {
		cfg.Retention = DefaultRetention
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.RetryMax < cfg.RetryBase {
		cfg.RetryMax = DefaultRetryMax
		if cfg.RetryMax < cfg.RetryBase {
			cfg.RetryMax = cfg.RetryBase
		}
	}
	if cfg.RefCacheCap <= 0 {
		cfg.RefCacheCap = DefaultRefCacheCap
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if err := workloaddb.EnsureSchema(cfg.Target); err != nil {
		return nil, err
	}
	d := &Daemon{cfg: cfg, logf: cfg.Logf}
	d.src = ima.Sources{
		DB: cfg.Source, Mon: cfg.Mon,
		Actions: cfg.Actions, ApplyFailures: cfg.ApplyFailures,
		Collector: d.Health,
	}
	for _, rel := range ima.Persisted() {
		d.cursors = append(d.cursors, rel.NewCursor(cfg.RefCacheCap))
	}
	d.newTarget = func() execTarget { return cfg.Target.NewSession() }
	return d, nil
}

// Run polls on the configured interval until the context is cancelled.
// A transient poll failure does not terminate the loop; it schedules a
// retry with capped exponential backoff (interval ticks are absorbed
// while a retry is pending — polling a failing target more often would
// only add load to it).
// Run returns only on context cancellation or a fatal error.
func (d *Daemon) Run(ctx context.Context) error {
	ticker := time.NewTicker(d.cfg.Interval)
	defer ticker.Stop()

	backoff := d.cfg.RetryBase
	var retryTimer *time.Timer
	var retryC <-chan time.Time // nil unless a retry is pending
	defer func() {
		if retryTimer != nil {
			retryTimer.Stop()
		}
	}()

	attempt := func(isRetry bool) error {
		if isRetry {
			d.retries.Add(1)
		}
		err := d.Poll()
		if err == nil {
			backoff = d.cfg.RetryBase
			retryC = nil
			return nil
		}
		if ctx.Err() != nil {
			// Cancelled mid-poll: report the cancellation, not whatever
			// transient error the dying poll produced.
			return ctx.Err()
		}
		if IsFatal(err) {
			return err
		}
		d.logf("daemon: poll failed (retrying in %s): %v", backoff, err)
		retryTimer = time.NewTimer(backoff)
		retryC = retryTimer.C
		backoff *= 2
		if backoff > d.cfg.RetryMax {
			backoff = d.cfg.RetryMax
		}
		return nil
	}

	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			if retryC != nil {
				continue // the pending retry drives recovery
			}
			if err := attempt(false); err != nil {
				return err
			}
		case <-retryC:
			if err := attempt(true); err != nil {
				return err
			}
		}
	}
}

// Stats returns a snapshot of daemon counters.
func (d *Daemon) Stats() Stats {
	var last time.Time
	if us := d.lastPoll.Load(); us != 0 {
		last = time.UnixMicro(us)
	}
	return Stats{
		Polls:          d.polls.Load(),
		RowsAppended:   d.appended.Load(),
		RowsPruned:     d.pruned.Load(),
		AlertsFired:    d.fired.Load(),
		LastPoll:       last,
		PollErrors:     d.pollErrors.Load(),
		Retries:        d.retries.Load(),
		AlertErrors:    d.alertErrors.Load(),
		CarryoverDepth: d.carryDepth.Load(),
	}
}

// Health samples the collector columns of the statistics relation.
func (d *Daemon) Health() ima.CollectorHealth {
	return ima.CollectorHealth{
		PollErrors:     d.pollErrors.Load(),
		Retries:        d.retries.Load(),
		CarryoverDepth: d.carryDepth.Load(),
		AlertErrors:    d.alertErrors.Load(),
	}
}

// Poll performs one collection cycle: take one cut of the monitor, run
// the flagger and vacuum, copy every persisted relation of the ima
// registry into its ws_ table with the poll timestamp, prune expired
// rows once per retention hour, then evaluate alerts. The collection
// runs one poll at a time; the alerts, whose actions are the caller's
// code, run after it.
//
// A failing section does not abort the cycle: each append runs
// independently, rows that did not land are selected again next poll,
// and the errors are joined into the return value for Run to back off
// on. Alert evaluation never contributes an error.
func (d *Daemon) Poll() error {
	now, errs := d.collect()
	// Alerts — isolated; failures are counted, never propagated.
	d.evaluateAlerts(now)
	if len(errs) > 0 {
		d.pollErrors.Add(1)
		return errors.Join(errs...)
	}
	return nil
}

// collect is Poll up to the alerts, under the daemon's mutex; it
// returns the poll's time and errors.
func (d *Daemon) collect() (time.Time, []error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	ts := now.UnixMicro()
	d.polls.Add(1)
	d.lastPoll.Store(ts)

	target := d.newTarget()
	defer target.Close()

	var errs []error

	// 1. One consistent cut of statements, references, frequencies and
	// the workload sums for the copy below, taken with a single pass
	// over the monitor's statement lock.
	src := d.src
	cut := d.cfg.Mon.Snapshot()
	src.Cut = &cut

	// 2. Housekeeping that feeds the sensors read below. Adaptive
	// monitoring: evaluate the flagging policy, so the wait breakdowns
	// persisted are those of the current flag set. MVCC garbage
	// collection rides the poll too — "disk accesses on the daemon's
	// schedule" extends naturally to version reclamation.
	if d.cfg.Flagger != nil {
		if flagged, expired := d.cfg.Flagger.Evaluate(now); flagged > 0 || expired > 0 {
			d.logf("daemon: flagger: %d flagged, %d expired", flagged, expired)
		}
	}
	if !d.cfg.DisableVacuum {
		if vs, err := d.cfg.Source.Vacuum(); err != nil {
			errs = append(errs, fmt.Errorf("daemon: vacuum: %w", err))
		} else if vs.Reclaimed > 0 || vs.Cleared > 0 || vs.Retired > 0 {
			d.logf("daemon: vacuum: reclaimed %d, cleared %d stamps, retired %d txn ids",
				vs.Reclaimed, vs.Cleared, vs.Retired)
		}
	}

	// 3. Every persisted relation, in registry order: read it, let its
	// persist rule pick the rows, append them. Relations fail
	// independently, and a rule's watermark, dedup memory or pending
	// sums advance only past rows that landed, so whatever a failed
	// append left behind is picked again next poll.
	var unlanded int64
	for _, c := range d.cursors {
		rows, ack := c.Select(&src, now)
		n, err := d.insertBatch(target, c.Rel.StoreName(), ts, rows)
		ack(n)
		if err != nil {
			errs = append(errs, err)
		}
		if c.Rel.Landed != nil {
			unlanded += int64(len(rows) - n)
		}
	}
	d.carryDepth.Store(unlanded)

	// 4. Retention pruning, at most once per hour of wall time; a
	// failed prune is retried next poll (lastPrune advances on success).
	if now.Sub(d.lastPrune) >= time.Hour || d.lastPrune.IsZero() {
		if n, err := workloaddb.Prune(d.cfg.Target, d.cfg.Retention, now); err != nil {
			errs = append(errs, err)
		} else {
			d.pruned.Add(n)
			d.lastPrune = now
		}
	}
	return now, errs
}

// insertBatch appends rows, each stamped with ts as its leading ts_us
// column, to a workload table in chunks. It returns the number of rows
// successfully appended — on error, a strict prefix of rows (the
// chunks whose Exec succeeded before the failure).
func (d *Daemon) insertBatch(x execTarget, table string, ts int64, rows []sqltypes.Row) (int, error) {
	stamp := "(" + sqltypes.NewInt(ts).SQLLiteral()
	const chunk = 200
	for start := 0; start < len(rows); start += chunk {
		end := start + chunk
		if end > len(rows) {
			end = len(rows)
		}
		var b strings.Builder
		b.WriteString("INSERT INTO ")
		b.WriteString(table)
		b.WriteString(" VALUES ")
		for i, row := range rows[start:end] {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(stamp)
			for _, v := range row {
				b.WriteByte(',')
				b.WriteString(v.SQLLiteral())
			}
			b.WriteByte(')')
		}
		if _, err := x.Exec(b.String()); err != nil {
			return start, fmt.Errorf("daemon: append to %s: %w", table, err)
		}
		d.appended.Add(int64(end - start))
	}
	return len(rows), nil
}

// evaluateAlerts runs every alert rule, isolating failures: a bad
// query or operator is logged and counted but cannot abort the poll or
// starve the remaining alerts.
func (d *Daemon) evaluateAlerts(now time.Time) {
	if len(d.cfg.Alerts) == 0 {
		return
	}
	s := d.cfg.Source.NewSession()
	defer s.Close()
	for _, a := range d.cfg.Alerts {
		if err := d.evaluateAlert(s, a, now); err != nil {
			d.alertErrors.Add(1)
			d.logf("daemon: alert %q: %v", a.Name, err)
		}
	}
}

func (d *Daemon) evaluateAlert(s *engine.Session, a Alert, now time.Time) error {
	res, err := s.Exec(a.Query)
	if err != nil {
		return err
	}
	if len(res.Rows) == 0 || len(res.Rows[0]) == 0 {
		return nil
	}
	v := res.Rows[0][0].AsFloat()
	fireNow := false
	switch a.Op {
	case ">":
		fireNow = v > a.Threshold
	case ">=":
		fireNow = v >= a.Threshold
	case "<":
		fireNow = v < a.Threshold
	case "<=":
		fireNow = v <= a.Threshold
	case "=":
		fireNow = v == a.Threshold
	default:
		return fmt.Errorf("bad operator %q", a.Op)
	}
	if fireNow {
		d.fired.Add(1)
		if a.Action != nil {
			a.Action(Event{Alert: a.Name, Value: v, When: now})
		}
	}
	return nil
}
