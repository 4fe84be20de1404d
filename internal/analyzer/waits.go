package analyzer

import (
	"fmt"
	"sort"

	"repro/internal/workloaddb"
)

// Wait-state analysis: the rules over the stage sums of sampled
// executions in ws_stages. Where the cost-based rules ask "is this
// statement more expensive than the optimizer thought?", these ask
// "where does the wall-clock of a statement actually go?" and route the
// answer to the subsystem that can absorb it.

// waitDelta is one statement's per-interval wait time, obtained by
// differencing the earliest and latest ws_stages rows of its hash
// (counter semantics, like ws_latency).
type waitDelta struct {
	hash    int64
	samples int64
	wall    int64
	lock    int64 // lockwait + admit
	io      int64 // load + pinwait
}

// ruleWaitStates classifies each statement's differenced stage sums and
// recommends by dominant wait class:
//
//   - lock-dominant (row locks, write gates and admission) → per-statement
//     advisory: shorten the transaction or narrow its lock footprint with
//     an index;
//   - I/O-dominant (page loads + pin waits) → a buffer-pool enlargement,
//     reusing KindBufferPool so ApplyOnline can live-resize under the
//     usual canary.
//
// A durable-dominant statement gets no recommendation: a commit already
// shares its fsync with every committer queued behind it on the log,
// and there is no batching window left to widen.
//
// Statements below minWaitSamples differenced sampled executions are
// skipped as noise. A missing ws_stages table (workload DBs collected
// before stage attribution existed) skips the rule rather than failing
// the analysis.
func (a *Analyzer) ruleWaitStates(rep *Report) error {
	deltas, err := a.loadWaitDeltas()
	if err != nil || len(deltas) == 0 {
		return nil
	}
	texts := map[int64]string{}
	for _, st := range rep.Statements {
		texts[int64(st.Hash)] = st.Text
	}

	var (
		ioWait, ioWall int64
		ioStmts        int
	)
	for _, d := range deltas {
		if d.samples < minWaitSamples || d.wall <= 0 {
			continue
		}
		wall := float64(d.wall)
		lockFrac := float64(d.lock) / wall
		ioFrac := float64(d.io) / wall

		if lockFrac >= waitDominance {
			text, tbl := texts[d.hash], ""
			if ts := a.tablesOf(text); len(ts) > 0 {
				tbl = ts[0]
			}
			rep.Recommendations = append(rep.Recommendations, Recommendation{
				Kind:  KindLockWait,
				Table: tbl,
				SQL:   fmt.Sprintf("-- lock-bound statement %d: shorten its transaction or add an index to narrow its lock footprint", d.hash),
				Reason: fmt.Sprintf("%.0f%% of its wall-clock over %d sampled execution(s) was spent waiting for locks or admission: %.40q",
					lockFrac*100, d.samples, oneLine(text)),
				Score: float64(d.lock),
			})
		}
		if ioFrac >= waitDominance {
			ioStmts++
			ioWait += d.io
			ioWall += d.wall
		}
	}

	// The I/O class aggregates across statements: it points at a shared
	// resource (the pool), so one recommendation covers every statement
	// stalling on it.
	if ioStmts > 0 && !hasKind(rep, KindBufferPool) {
		rep.Recommendations = append(rep.Recommendations, Recommendation{
			Kind: KindBufferPool,
			SQL:  "-- enlarge the buffer pool (live: Applier resizes; offline: engine.Config.PoolPages)",
			Reason: fmt.Sprintf("%d statement(s) spent %.0f%% of their sampled wall-clock loading pages or waiting on pinned-pool backpressure",
				ioStmts, float64(ioWait)/float64(ioWall)*100),
			Score: float64(ioWait),
		})
	}
	return nil
}

// hasKind reports whether the report already carries a recommendation
// of the given kind (the hit-ratio rule may have recommended the pool
// enlargement first; one is enough).
func hasKind(rep *Report, k Kind) bool {
	for _, r := range rep.Recommendations {
		if r.Kind == k {
			return true
		}
	}
	return false
}

// loadWaitDeltas differences each hash's earliest and latest ws_stages
// rows. A hash persisted by a single poll keeps its cumulative values,
// as does one whose sums restarted (its entry was evicted) in between.
func (a *Analyzer) loadWaitDeltas() ([]waitDelta, error) {
	s := a.cfg.WorkloadDB.NewSession()
	defer s.Close()
	res, err := s.Exec(`SELECT ts_us, hash, samples, wall_ns, lockwait_ns + admit_ns, load_ns + pinwait_ns
		FROM ` + workloaddb.Stages + ` ORDER BY ts_us`)
	if err != nil {
		return nil, err
	}
	first := map[int64]waitDelta{}
	last := map[int64]waitDelta{}
	var order []int64
	for _, r := range res.Rows {
		d := waitDelta{hash: r[1].I, samples: r[2].I, wall: r[3].I, lock: r[4].I, io: r[5].I}
		if _, ok := first[d.hash]; !ok {
			first[d.hash] = d
			order = append(order, d.hash)
		}
		last[d.hash] = d
	}
	out := make([]waitDelta, 0, len(order))
	for _, h := range order {
		f, l := first[h], last[h]
		d := l
		if f.samples < l.samples { // ≥2 rows: difference them
			d.samples = l.samples - f.samples
			d.wall = l.wall - f.wall
			d.lock = l.lock - f.lock
			d.io = l.io - f.io
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].wall > out[j].wall })
	return out, nil
}
