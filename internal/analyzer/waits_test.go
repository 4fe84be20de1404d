package analyzer

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/stage"
	"repro/internal/workloaddb"
)

// waitSample is one synthetic ws_stages poll row: cumulative stage
// sums for one statement hash. exec, lock, io, fsync and pin seed the
// exec, lockwait, load, durable and pinwait columns.
type waitSample struct {
	hash                             int64
	text                             string
	samples                          int64
	wall, exec, lock, io, fsync, pin int64
}

// insertWaitSeries seeds ws_stages with one row per sample and poll, and
// returns the report whose statements name the samples' texts, as
// Analyze builds it before the rule runs.
func insertWaitSeries(t *testing.T, wdb *engine.DB, polls [][]waitSample) *Report {
	t.Helper()
	s := wdb.NewSession()
	defer s.Close()
	base := time.Now()
	rep := &Report{}
	texts := map[int64]bool{}
	for i, rows := range polls {
		ts := base.Add(time.Duration(i) * time.Minute).UnixMicro()
		for _, w := range rows {
			var ns [stage.N]int64
			ns[stage.Exec], ns[stage.LockWait], ns[stage.Load], ns[stage.Durable], ns[stage.PinWait] = w.exec, w.lock, w.io, w.fsync, w.pin
			vals := fmt.Sprintf("%d, %d, %d, %d, %d", ts, ts, w.hash, w.samples, w.wall)
			for _, v := range ns {
				vals += fmt.Sprintf(", %d", v)
			}
			if _, err := s.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%s)", workloaddb.Stages, vals)); err != nil {
				t.Fatal(err)
			}
			if !texts[w.hash] {
				texts[w.hash] = true
				rep.Statements = append(rep.Statements, StmtCost{Hash: uint64(w.hash), Text: w.text})
			}
		}
	}
	return rep
}

func recsOf(rep *Report, k Kind) []Recommendation {
	var out []Recommendation
	for _, r := range rep.Recommendations {
		if r.Kind == k {
			out = append(out, r)
		}
	}
	return out
}

// TestWaitRuleClassification seeds two ws_stages rows per statement
// and checks each dominant wait class routes to its rule: lock → the
// per-statement contention advisory, I/O → buffer pool, durable → nothing
// (commits already share fsyncs; there is no window to tune). The first
// snapshot is a decoy with a different mix, proving the rule
// differences snapshots instead of reading cumulative values.
func TestWaitRuleClassification(t *testing.T) {
	an, wdb := newStatsOnlyFixture(t)
	const ms = int64(time.Millisecond)
	rep := insertWaitSeries(t, wdb, [][]waitSample{
		{ // poll 1: small cumulative baselines
			{hash: 1, text: "UPDATE hot SET v = 1", samples: 5, wall: 10 * ms, exec: 9 * ms, lock: 1 * ms},
			{hash: 2, text: "SELECT * FROM big", samples: 5, wall: 10 * ms, exec: 9 * ms, io: 1 * ms},
			{hash: 3, text: "INSERT INTO log VALUES (1)", samples: 5, wall: 10 * ms, exec: 9 * ms, fsync: 1 * ms},
		},
		{ // poll 2: the interval since poll 1 is dominated per class
			{hash: 1, text: "UPDATE hot SET v = 1", samples: 105, wall: 110 * ms, exec: 29 * ms, lock: 81 * ms},
			{hash: 2, text: "SELECT * FROM big", samples: 105, wall: 110 * ms, exec: 29 * ms, io: 51 * ms, pin: 30 * ms},
			{hash: 3, text: "INSERT INTO log VALUES (1)", samples: 105, wall: 110 * ms, exec: 29 * ms, fsync: 81 * ms},
		},
	})
	if err := an.ruleWaitStates(rep); err != nil {
		t.Fatal(err)
	}

	locks := recsOf(rep, KindLockWait)
	if len(locks) != 1 {
		t.Fatalf("lock advisories = %+v", rep.Recommendations)
	}
	if locks[0].Reason == "" || locks[0].Score != float64(80*ms) {
		t.Fatalf("lock advisory = %+v", locks[0])
	}
	if pools := recsOf(rep, KindBufferPool); len(pools) != 1 {
		t.Fatalf("buffer-pool recs = %+v", rep.Recommendations)
	}
	if n := len(rep.Recommendations); n != 2 {
		t.Fatalf("fsync-dominant statement got a recommendation: %+v", rep.Recommendations)
	}
}

// TestWaitRuleThresholds: statements below minWaitSamples or below the
// dominance fraction get no recommendation, and an exec-dominant statement
// (the monitor says "it is just expensive") produces no advisory.
func TestWaitRuleThresholds(t *testing.T) {
	an, wdb := newStatsOnlyFixture(t)
	const ms = int64(time.Millisecond)
	rep := insertWaitSeries(t, wdb, [][]waitSample{
		{
			// Lock-dominated but only 3 samples: noise.
			{hash: 1, text: "q1", samples: 3, wall: 10 * ms, lock: 9 * ms},
			// Plenty of samples but exec-dominant: correctly no advisory.
			{hash: 2, text: "q2", samples: 100, wall: 100 * ms, exec: 90 * ms, lock: 5 * ms},
			// Every class below the 40% dominance line.
			{hash: 3, text: "q3", samples: 100, wall: 100 * ms, exec: 30 * ms, lock: 25 * ms, io: 25 * ms, fsync: 20 * ms},
		},
	})
	if err := an.ruleWaitStates(rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Recommendations) != 0 {
		t.Fatalf("unexpected recommendations: %+v", rep.Recommendations)
	}
}

// TestWaitRuleRespectsExistingPoolRec: when the hit-ratio rule already
// recommended the pool enlargement, the wait rule must not duplicate
// it.
func TestWaitRuleRespectsExistingPoolRec(t *testing.T) {
	an, wdb := newStatsOnlyFixture(t)
	const ms = int64(time.Millisecond)
	rep := insertWaitSeries(t, wdb, [][]waitSample{
		{{hash: 2, text: "SELECT * FROM big", samples: 100, wall: 100 * ms, exec: 20 * ms, io: 80 * ms}},
	})
	rep.Recommendations = []Recommendation{{Kind: KindBufferPool, Reason: "hit ratio"}}
	if err := an.ruleWaitStates(rep); err != nil {
		t.Fatal(err)
	}
	if pools := recsOf(rep, KindBufferPool); len(pools) != 1 {
		t.Fatalf("duplicated pool recommendation: %+v", pools)
	}
}
