package analyzer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ima"
	"repro/internal/monitor"
	"repro/internal/sqlparser"
)

// ActionState is a state of the apply state machine.
type ActionState string

// The states an action moves through: Proposed → Applying → Canary →
// Accepted | RolledBack, with Failed reachable from Applying (the
// change could not be executed) and from Canary (the rollback itself
// failed).
const (
	StateProposed   ActionState = "proposed"
	StateApplying   ActionState = "applying"
	StateCanary     ActionState = "canary"
	StateAccepted   ActionState = "accepted"
	StateRolledBack ActionState = "rolled-back"
	StateFailed     ActionState = "failed"
)

// The apply state machine's fixed parameters.
const (
	// canaryWindow is how long the canary observes traffic before and
	// after applying an action.
	canaryWindow = 5 * time.Second
	// canaryQuantile is the tail quantile the canary judges.
	canaryQuantile = 0.95
	// regressThreshold rolls an action back when the observed quantile
	// exceeds baseline * (1 + regressThreshold).
	regressThreshold = 0.25
	// minSamples is the minimum executions each canary window needs
	// before its verdict counts; with fewer the action is accepted with
	// an "insufficient samples" note — too little evidence to condemn
	// it.
	minSamples = 20
	// poolGrowFactor sizes buffer-pool grow actions: new capacity =
	// current * poolGrowFactor.
	poolGrowFactor = 1.5
	// maxHistory bounds the retained audit rows; older transitions are
	// dropped oldest-first after the daemon had a poll to persist them.
	maxHistory = 1024
)

// ApplyConfig holds the apply state machine's test seams; the zero
// value observes the source monitor in real time.
type ApplyConfig struct {
	// Latency returns the cumulative wallclock latency histogram the
	// canary differences. Defaults to the source monitor's wall
	// snapshot; tests inject synthetic series here.
	Latency func() monitor.LatencyCounts
	// Sleep and Now are injectable for tests (default time.Sleep and
	// time.Now).
	Sleep func(time.Duration)
	Now   func() time.Time
}

// Applier executes recommendations through the canary/observe/rollback
// state machine and keeps the append-only audit trail that ima_actions
// and ws_actions expose. It is safe for concurrent use, but actions
// run sequentially within one ApplyOnline call so their canary windows
// do not overlap.
type Applier struct {
	a   *Analyzer
	cfg ApplyConfig

	mu      sync.Mutex
	applyMu sync.Mutex // serializes ApplyOnline runs (overlapping canaries measure each other)
	seq     int64
	nextID  int64
	history []ima.ActionRow

	accepted   atomic.Int64
	rolledBack atomic.Int64
	failed     atomic.Int64
}

// NewApplier builds the apply state machine on top of an Analyzer.
func (a *Analyzer) NewApplier(cfg ApplyConfig) *Applier {
	if cfg.Latency == nil {
		mon := a.cfg.Source.Monitor()
		cfg.Latency = func() monitor.LatencyCounts {
			if mon == nil {
				return monitor.LatencyCounts{}
			}
			wall, _ := mon.SnapshotLatency()
			return wall
		}
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Applier{a: a, cfg: cfg}
}

// ActionRows returns the audit trail (oldest first) for ima_actions
// and the daemon.
func (ap *Applier) ActionRows() []ima.ActionRow {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	out := make([]ima.ActionRow, len(ap.history))
	copy(out, ap.history)
	return out
}

// Stats returns the outcome counters (accepted, rolled back, failed).
func (ap *Applier) Stats() (accepted, rolledBack, failed int64) {
	return ap.accepted.Load(), ap.rolledBack.Load(), ap.failed.Load()
}

// action is the in-flight state of one recommendation being applied.
type action struct {
	id       int64
	kind     Kind
	target   string
	sql      string
	state    ActionState
	baseline time.Duration
	observed time.Duration
	deltaPct float64
	samples  int64
	detail   string

	rollback func() error // how to undo the applied change; nil = irreversible
}

// transition records a state change in the audit trail.
func (ap *Applier) transition(ac *action, state ActionState, detail string) {
	ac.state = state
	if detail != "" {
		ac.detail = detail
	}
	ap.mu.Lock()
	ap.seq++
	row := ima.ActionRow{
		Seq:      ap.seq,
		ActionID: ac.id,
		Kind:     string(ac.kind),
		Target:   ac.target,
		SQL:      ac.sql,
		State:    string(state),
		Baseline: ac.baseline.Microseconds(),
		Observed: ac.observed.Microseconds(),
		DeltaPct: ac.deltaPct,
		Samples:  ac.samples,
		AtUs:     ap.cfg.Now().UnixMicro(),
		Detail:   ac.detail,
	}
	ap.history = append(ap.history, row)
	if over := len(ap.history) - maxHistory; over > 0 {
		ap.history = append(ap.history[:0], ap.history[over:]...)
	}
	ap.mu.Unlock()
}

// observeWindow differences the cumulative latency histogram across
// one canary window and returns its canaryQuantile and sample count.
func (ap *Applier) observeWindow() (time.Duration, int64) {
	before := ap.cfg.Latency()
	ap.cfg.Sleep(canaryWindow)
	after := ap.cfg.Latency()
	var delta monitor.LatencyCounts
	for i := range delta {
		delta[i] = after[i] - before[i]
	}
	return delta.Quantile(canaryQuantile), delta.Total()
}

// ApplyOnline executes the recommendations of the given kinds (all
// executable kinds if none are named) through the state machine:
// observe a baseline window, apply, observe a canary window, then
// accept or automatically roll back actions whose tail quantile
// regressed beyond the threshold. A CREATE INDEX builds while the
// workload runs (DML proceeds; the table drains only for the final
// catch-up), so the canary measures the workload, not a stalled one;
// buffer-pool recommendations execute as live resizes.
// MODIFY and CREATE STATISTICS are applied directly with an audit
// record but no canary — a heap rebuild has no cheap rollback.
// Failures do not stop the remaining recommendations; they are counted
// and joined into the returned error.
func (ap *Applier) ApplyOnline(rep *Report, kinds ...Kind) error {
	ap.applyMu.Lock()
	defer ap.applyMu.Unlock()
	want := map[Kind]bool{}
	if len(kinds) == 0 {
		want[KindModify], want[KindIndex], want[KindStatistics], want[KindBufferPool] = true, true, true, true
	}
	for _, k := range kinds {
		want[k] = true
	}
	var errs []error
	order := []Kind{KindModify, KindIndex, KindBufferPool, KindStatistics}
	for _, k := range order {
		if !want[k] {
			continue
		}
		for _, rec := range rep.Recommendations {
			if rec.Kind != k {
				continue
			}
			if err := ap.applyOne(rec); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// applyOne drives a single recommendation through the state machine.
func (ap *Applier) applyOne(rec Recommendation) error {
	ap.mu.Lock()
	ap.nextID++
	id := ap.nextID
	ap.mu.Unlock()
	ac := &action{id: id, kind: rec.Kind, target: rec.Table, sql: rec.SQL}
	if rec.Kind == KindBufferPool {
		ac.target = "bufferpool"
	}
	ap.transition(ac, StateProposed, rec.Reason)

	canary := rec.Kind == KindIndex || rec.Kind == KindBufferPool
	if canary {
		// Baseline window before touching anything: the accept signal
		// is relative, not absolute.
		ac.baseline, ac.samples = ap.observeWindow()
	}

	ap.transition(ac, StateApplying, "")
	if err := ap.execute(ac, rec); err != nil {
		ap.failed.Add(1)
		ap.a.applyFailures.Add(1)
		ap.transition(ac, StateFailed, err.Error())
		return fmt.Errorf("analyzer: applying %q: %w", rec.SQL, err)
	}
	if !canary {
		ap.accepted.Add(1)
		ap.transition(ac, StateAccepted, "applied without canary")
		return nil
	}

	ap.transition(ac, StateCanary, "")
	baselineSamples := ac.samples
	observed, samples := ap.observeWindow()
	ac.observed, ac.samples = observed, samples
	if ac.baseline > 0 {
		ac.deltaPct = (float64(observed) - float64(ac.baseline)) / float64(ac.baseline) * 100
	}

	switch {
	case baselineSamples < minSamples || samples < minSamples:
		ap.accepted.Add(1)
		ap.transition(ac, StateAccepted, fmt.Sprintf(
			"insufficient canary evidence (%d baseline / %d observed samples, need %d); accepted",
			baselineSamples, samples, minSamples))
	case float64(observed) > float64(ac.baseline)*(1+regressThreshold):
		if ac.rollback != nil {
			if rerr := ac.rollback(); rerr != nil {
				ap.failed.Add(1)
				ap.a.applyFailures.Add(1)
				ap.transition(ac, StateFailed, fmt.Sprintf("p%.0f regressed %.1f%% but rollback failed: %v",
					canaryQuantile*100, ac.deltaPct, rerr))
				return fmt.Errorf("analyzer: rolling back %q: %w", rec.SQL, rerr)
			}
		}
		ap.rolledBack.Add(1)
		ap.transition(ac, StateRolledBack, fmt.Sprintf("p%.0f regressed %.1f%% (%v -> %v), beyond %.0f%% threshold",
			canaryQuantile*100, ac.deltaPct, ac.baseline, observed, regressThreshold*100))
	default:
		ap.accepted.Add(1)
		ap.transition(ac, StateAccepted, fmt.Sprintf("p%.0f delta %.1f%% (%v -> %v) within threshold",
			canaryQuantile*100, ac.deltaPct, ac.baseline, observed))
	}
	return nil
}

// execute applies the change and arms the rollback.
func (ap *Applier) execute(ac *action, rec Recommendation) error {
	db := ap.a.cfg.Source
	switch rec.Kind {
	case KindIndex:
		stmt, err := sqlparser.Parse(rec.SQL)
		if err != nil {
			return err
		}
		ci, ok := stmt.(*sqlparser.CreateIndexStmt)
		if !ok {
			return fmt.Errorf("recommendation SQL is not CREATE INDEX: %s", rec.SQL)
		}
		s := db.NewSession()
		defer s.Close()
		if _, err := s.Exec(rec.SQL); err != nil {
			return err
		}
		name := ci.Name
		ac.rollback = func() error {
			rs := db.NewSession()
			defer rs.Close()
			_, err := rs.Exec("DROP INDEX " + name)
			return err
		}
		return nil
	case KindBufferPool:
		oldCap := db.PoolCapacity()
		target := int(float64(oldCap) * poolGrowFactor)
		newCap := db.ResizePool(target)
		ac.sql = fmt.Sprintf("-- resize buffer pool %d -> %d pages", oldCap, newCap)
		ac.rollback = func() error {
			db.ResizePool(oldCap)
			return nil
		}
		return nil
	default: // KindModify, KindStatistics: plain SQL, no rollback
		s := db.NewSession()
		defer s.Close()
		_, err := s.Exec(rec.SQL)
		return err
	}
}
