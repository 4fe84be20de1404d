// Package analyzer implements the rule-based analysis of the collected
// monitoring data, as in §IV-C of the paper. It scans the workload
// database, identifies problems and recommends changes to the physical
// database design:
//
//   - statements whose estimated and actual costs differ significantly
//     → collect statistics (the optimizer is flying blind);
//   - attributes used by the workload without histograms → collect
//     statistics;
//   - heap tables with more than 10% overflow pages → MODIFY TO BTREE;
//   - a secondary index set found greedily by feeding the optimizer
//     virtual indexes and letting its what-if costing decide which
//     hypothetical indexes would actually be used.
//
// The analyzer only recommends; Apply implements the recommendations,
// which the paper leaves to the DBA ("we restricted ourselves to a
// manual implementation of changes").
package analyzer

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/charts"
	"repro/internal/engine"
	"repro/internal/sqlparser"
	"repro/internal/workloaddb"
)

// Kind classifies a recommendation.
type Kind string

// Recommendation kinds.
const (
	KindStatistics Kind = "collect-statistics"
	KindModify     Kind = "modify-to-btree"
	KindIndex      Kind = "create-index"
	// KindBufferPool is executed by the Applier as a live resize
	// (engine.ResizePool); plain Apply still skips it because there is
	// no SQL statement to run.
	KindBufferPool Kind = "enlarge-buffer-pool"
	// KindLockWait comes from the wait-state rule over the stage sums
	// of sampled executions (ws_stages). It is advisory: shortening
	// transactions is an application change, not DDL.
	KindLockWait Kind = "reduce-lock-waits"
	// KindMvccSnapshot and KindMvccConflict come from the MVCC health
	// rule over ws_mvcc. Both are advisory: closing long transactions
	// and de-contending hot rows are application changes.
	KindMvccSnapshot Kind = "close-long-snapshots"
	KindMvccConflict Kind = "reduce-write-conflicts"
)

// Recommendation is one proposed change with the DDL that implements
// it.
type Recommendation struct {
	Kind    Kind
	Table   string
	Columns []string
	SQL     string
	Reason  string
	// Score orders recommendations within a kind: supporting statement
	// count for rules, estimated total cost saving for indexes.
	Score float64
}

// StmtCost aggregates one statement's workload history.
type StmtCost struct {
	Hash       uint64
	Text       string
	Executions int64
	ActualCost float64 // avg per execution, combined units
	EstCost    float64 // avg optimizer estimate
	WhatIfCost float64 // estimate with the recommended virtual indexes
	AvgWallUs  float64
	Diverges   bool
}

// Report is the analyzer's output.
type Report struct {
	Recommendations []Recommendation
	Statements      []StmtCost // all analyzed statements, most expensive first
	DivergentCount  int
	// CostDiagram is the Figure 6 chart: actual vs estimated vs
	// what-if estimate for the ten most expensive statements.
	CostDiagram string
	// BaselineEstCost and WhatIfEstCost total the workload's estimated
	// cost without and with the recommended index set.
	BaselineEstCost float64
	WhatIfEstCost   float64
}

// The rules' thresholds, fixed as the paper fixes its own ("more than
// 10% overflow pages").
const (
	// divergenceFactor flags statements whose actual cost differs from
	// the estimate by more than this factor.
	divergenceFactor = 2.0
	// overflowRatio triggers the restructuring rule.
	overflowRatio = 0.10
	// maxIndexes bounds the recommended index set.
	maxIndexes = 16
	// minImprovement stops the greedy index search when the best
	// remaining candidate improves total estimated cost by less than
	// this fraction.
	minImprovement = 0.005
	// minHitRatio triggers the buffer-pool rule when an interval's cache
	// hit ratio falls below it while evictions are nonzero.
	minHitRatio = 0.90
	// minCacheRequests is the minimum page requests an interval needs
	// before its hit ratio is judged; quieter intervals are noise.
	minCacheRequests = 100
	// waitDominance is the fraction of a statement's sampled
	// executions' wall-clock a single wait class must account for before
	// the wait-state rule fires on it.
	waitDominance = 0.4
	// minWaitSamples is the minimum differenced count of sampled
	// executions a statement needs in ws_stages before its stage sums
	// are judged.
	minWaitSamples = 8
	// maxSnapshotAge triggers the MVCC long-snapshot advisory when the
	// latest poll's oldest active snapshot is older than this: twice the
	// daemon's poll interval.
	maxSnapshotAge = 60 * time.Second
	// minWriteConflicts is the differenced write-conflict count an
	// interval needs before the conflict rule fires.
	minWriteConflicts = 5
)

// Config wires the analyzer.
type Config struct {
	// Source is the monitored database: what-if planning runs against
	// its optimizer and Apply executes DDL on it.
	Source *engine.DB
	// WorkloadDB holds the collected monitoring data.
	WorkloadDB *engine.DB
}

// Analyzer scans collected data and recommends design changes.
type Analyzer struct {
	cfg Config
	// applyFailures counts recommendations that could not be executed
	// (by Apply or by an Applier), surfaced through ws_statistics.
	applyFailures atomic.Int64
}

// ApplyFailures returns the cumulative count of recommendations whose
// execution failed.
func (a *Analyzer) ApplyFailures() int64 { return a.applyFailures.Load() }

// New validates the configuration.
func New(cfg Config) (*Analyzer, error) {
	if cfg.Source == nil || cfg.WorkloadDB == nil {
		return nil, fmt.Errorf("analyzer: Source and WorkloadDB are required")
	}
	return &Analyzer{cfg: cfg}, nil
}

// combined folds CPU and IO into the cost unit used throughout: one
// page I/O ≈ 100 tuple operations.
func combined(cpu, io float64) float64 { return io + cpu/100 }

// Analyze scans the workload DB and builds the report.
func (a *Analyzer) Analyze() (*Report, error) {
	rep := &Report{}
	stmts, err := a.loadStatements()
	if err != nil {
		return nil, err
	}
	rep.Statements = stmts

	if err := a.ruleDivergence(rep); err != nil {
		return nil, err
	}
	if err := a.ruleMissingHistograms(rep); err != nil {
		return nil, err
	}
	if err := a.ruleOverflowPages(rep); err != nil {
		return nil, err
	}
	if err := a.ruleBufferPool(rep); err != nil {
		return nil, err
	}
	if err := a.ruleWaitStates(rep); err != nil {
		return nil, err
	}
	if err := a.ruleMvcc(rep); err != nil {
		return nil, err
	}
	if err := a.adviseIndexes(rep); err != nil {
		return nil, err
	}
	a.renderCostDiagram(rep)
	a.dedupeStatistics(rep)

	sort.SliceStable(rep.Recommendations, func(i, j int) bool {
		if rep.Recommendations[i].Kind != rep.Recommendations[j].Kind {
			return rep.Recommendations[i].Kind < rep.Recommendations[j].Kind
		}
		return rep.Recommendations[i].Score > rep.Recommendations[j].Score
	})
	return rep, nil
}

// dedupeStatistics keeps one statistics recommendation per table: the
// divergence rule (whole table) and the missing-histogram rule
// (specific columns) often flag the same table, and applying both is
// redundant — the "global" view of §IV-C avoids such overlapping
// changes.
func (a *Analyzer) dedupeStatistics(rep *Report) {
	wholeTable := map[string]int{} // table -> index of whole-table rec
	for i, r := range rep.Recommendations {
		if r.Kind == KindStatistics && len(r.Columns) == 0 {
			wholeTable[strings.ToLower(r.Table)] = i
		}
	}
	if len(wholeTable) == 0 {
		return
	}
	// First fold scores, then filter into a fresh slice (mutating and
	// compacting in place would corrupt indices).
	drop := map[int]bool{}
	for i, r := range rep.Recommendations {
		if r.Kind == KindStatistics && len(r.Columns) > 0 {
			if wi, ok := wholeTable[strings.ToLower(r.Table)]; ok {
				rep.Recommendations[wi].Score += r.Score
				drop[i] = true
			}
		}
	}
	out := make([]Recommendation, 0, len(rep.Recommendations)-len(drop))
	for i, r := range rep.Recommendations {
		if !drop[i] {
			out = append(out, r)
		}
	}
	rep.Recommendations = out
}

// loadStatements aggregates the workload history per statement hash.
func (a *Analyzer) loadStatements() ([]StmtCost, error) {
	s := a.cfg.WorkloadDB.NewSession()
	defer s.Close()

	// Latest text per hash.
	texts := map[int64]string{}
	lastTS := map[int64]int64{}
	res, err := s.Exec("SELECT hash, query_text, ts_us FROM " + workloaddb.Statements)
	if err != nil {
		return nil, err
	}
	for _, r := range res.Rows {
		h, ts := r[0].I, r[2].I
		if ts >= lastTS[h] {
			lastTS[h] = ts
			texts[h] = r[1].S
		}
	}

	// ws_workload rows are sums over their executions: per-execution
	// averages are Σ column ÷ Σ executions.
	res, err = s.Exec(`SELECT hash, SUM(executions), SUM(exec_cpu), SUM(exec_io),
		SUM(est_cpu), SUM(est_io), SUM(wall_us)
		FROM ` + workloaddb.Workload + ` GROUP BY hash`)
	if err != nil {
		return nil, err
	}
	var out []StmtCost
	for _, r := range res.Rows {
		n := r[1].AsFloat()
		if n == 0 {
			continue // only the tail of an execution in flight at a drain
		}
		out = append(out, StmtCost{
			Hash:       uint64(r[0].I),
			Text:       texts[r[0].I],
			Executions: int64(n),
			ActualCost: combined(r[2].AsFloat()/n, r[3].AsFloat()/n),
			EstCost:    combined(r[4].AsFloat()/n, r[5].AsFloat()/n),
			AvgWallUs:  r[6].AsFloat() / n,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].ActualCost*float64(out[i].Executions) >
			out[j].ActualCost*float64(out[j].Executions)
	})
	return out, nil
}

// ruleDivergence flags statements whose actual cost differs from the
// optimizer's estimate by more than divergenceFactor and
// recommends statistics on the tables they reference.
func (a *Analyzer) ruleDivergence(rep *Report) error {
	const minCost = 1.0 // ignore statements too cheap to matter
	needStats := map[string]int{}
	for i := range rep.Statements {
		sc := &rep.Statements[i]
		if sc.ActualCost < minCost && sc.EstCost < minCost {
			continue
		}
		ratio := (sc.ActualCost + 0.01) / (sc.EstCost + 0.01)
		if ratio > divergenceFactor || ratio < 1/divergenceFactor {
			sc.Diverges = true
			rep.DivergentCount++
			for _, tbl := range a.tablesOf(sc.Text) {
				needStats[tbl]++
			}
		}
	}
	for tbl, n := range needStats {
		rep.Recommendations = append(rep.Recommendations, Recommendation{
			Kind:   KindStatistics,
			Table:  tbl,
			SQL:    fmt.Sprintf("CREATE STATISTICS FOR %s", tbl),
			Reason: fmt.Sprintf("estimated and actual costs differ significantly for %d statement(s) referencing %s; statistics may be missing or outdated", n, tbl),
			Score:  float64(n),
		})
	}
	return nil
}

// tablesOf re-parses a statement text for its referenced tables
// (returns nil on parse failures, e.g. truncated texts).
func (a *Analyzer) tablesOf(text string) []string {
	stmt, err := sqlparser.Parse(text)
	if err != nil {
		return nil
	}
	tables := sqlparser.ReferencedTables(stmt)
	var out []string
	for _, t := range tables {
		if a.cfg.Source.Catalog().Table(t) != nil {
			out = append(out, strings.ToLower(t))
		}
	}
	return out
}

// ruleMissingHistograms recommends statistics for workload-touched
// attributes without histograms.
func (a *Analyzer) ruleMissingHistograms(rep *Report) error {
	s := a.cfg.WorkloadDB.NewSession()
	defer s.Close()
	res, err := s.Exec(`SELECT attr_name, table_name, MAX(frequency)
		FROM ` + workloaddb.Attributes + `
		WHERE has_histogram = 0 GROUP BY attr_name, table_name`)
	if err != nil {
		return err
	}
	perTable := map[string][]string{}
	weight := map[string]float64{}
	for _, r := range res.Rows {
		attr, tbl := r[0].S, r[1].S
		col := strings.TrimPrefix(attr, tbl+".")
		// The snapshot may predate statistics collected since: check
		// the live catalog.
		if a.cfg.Source.Catalog().Histogram(tbl, col) != nil {
			continue
		}
		perTable[tbl] = append(perTable[tbl], col)
		weight[tbl] += r[2].AsFloat()
	}
	for tbl, cols := range perTable {
		sort.Strings(cols)
		rep.Recommendations = append(rep.Recommendations, Recommendation{
			Kind:    KindStatistics,
			Table:   tbl,
			Columns: cols,
			SQL:     fmt.Sprintf("CREATE STATISTICS FOR %s (%s)", tbl, strings.Join(cols, ", ")),
			Reason:  fmt.Sprintf("attributes %s are used by the workload but have no histograms", strings.Join(cols, ", ")),
			Score:   weight[tbl],
		})
	}
	return nil
}

// ruleOverflowPages recommends restructuring heap tables whose overflow
// share exceeds the threshold.
func (a *Analyzer) ruleOverflowPages(rep *Report) error {
	s := a.cfg.WorkloadDB.NewSession()
	defer s.Close()
	res, err := s.Exec(`SELECT table_name, MAX(data_pages), MAX(overflow_pages)
		FROM ` + workloaddb.Tables + `
		WHERE structure = 'HEAP' GROUP BY table_name`)
	if err != nil {
		return err
	}
	for _, r := range res.Rows {
		tbl := r[0].S
		pages, overflow := r[1].AsFloat(), r[2].AsFloat()
		if pages <= 0 || overflow/pages <= overflowRatio {
			continue
		}
		meta := a.cfg.Source.Catalog().Table(tbl)
		if meta == nil || meta.Structure != "HEAP" {
			continue // already restructured
		}
		rep.Recommendations = append(rep.Recommendations, Recommendation{
			Kind:   KindModify,
			Table:  tbl,
			SQL:    fmt.Sprintf("MODIFY %s TO BTREE", tbl),
			Reason: fmt.Sprintf("%.0f of %.0f pages (%.0f%%) are overflow pages; the table should be restructured to B-Tree", overflow, pages, overflow/pages*100),
			Score:  overflow / pages,
		})
	}
	return nil
}

// renderCostDiagram builds the Figure 6 chart from the ten most
// expensive statements.
func (a *Analyzer) renderCostDiagram(rep *Report) {
	n := len(rep.Statements)
	if n > 10 {
		n = 10
	}
	var groups []charts.BarGroup
	for i := 0; i < n; i++ {
		sc := rep.Statements[i]
		groups = append(groups, charts.BarGroup{
			Label:  fmt.Sprintf("Q%d", i+1),
			Values: []float64{sc.ActualCost, sc.EstCost, sc.WhatIfCost},
		})
	}
	rep.CostDiagram = charts.BarChart(
		"Cost diagram: 10 most expensive statements (combined cost units)",
		[]string{"actual", "estimated", "est. w/ virtual indexes"},
		groups, 48)
}

// Apply executes the recommendations of the given kinds (all kinds if
// none are named) against the source database, in the order MODIFY →
// CREATE INDEX → CREATE STATISTICS so histograms reflect the final
// physical layout. A failing recommendation does not stop the rest:
// every one is attempted, failures are counted (see ApplyFailures) and
// returned joined. For the canary/observe/rollback protocol use an
// Applier instead.
func (a *Analyzer) Apply(rep *Report, kinds ...Kind) error {
	want := map[Kind]bool{}
	if len(kinds) == 0 {
		want[KindModify], want[KindIndex], want[KindStatistics] = true, true, true
	}
	for _, k := range kinds {
		want[k] = true
	}
	s := a.cfg.Source.NewSession()
	defer s.Close()
	var errs []error
	order := []Kind{KindModify, KindIndex, KindStatistics}
	for _, k := range order {
		if !want[k] {
			continue
		}
		for _, rec := range rep.Recommendations {
			if rec.Kind != k {
				continue
			}
			if _, err := s.Exec(rec.SQL); err != nil {
				a.applyFailures.Add(1)
				errs = append(errs, fmt.Errorf("analyzer: applying %q: %w", rec.SQL, err))
			}
		}
	}
	a.cfg.Source.InvalidatePlans()
	return errors.Join(errs...)
}
