package monitor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/stage"
)

// sampledRecord drives one sampled execution through the path the
// engine uses: prepare (which hands the handle the statement's digest)
// → Sample → a random walk of stage switches → Finish.
func sampledRecord(m *Monitor, c *stage.Clock, r *rand.Rand, text string) {
	h := m.StartStatement(text)
	h.Parsed("SELECT", nil)
	h.Keyed(sqlparser.DigestOf(text))
	clk := h.Sample(c)
	for i, n := 0, 1+r.Intn(12); i < n; i++ {
		clk.Switch(stage.Stage(r.Intn(int(stage.N))))
	}
	h.Finish(1, 0, 1, nil)
}

// TestWaitParity: the sum over the per-statement stage sums (what
// ima_stages renders) equals the monitor-global totals (what the
// engine_stage_* metrics render), because Finish advances both from the
// same stopped clock.
func TestWaitParity(t *testing.T) {
	m := New(Config{})
	texts := []string{"q0", "q1", "q2"}
	rng := rand.New(rand.NewSource(7))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		seed := rng.Int63()
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			var clk stage.Clock // a session's clock is its own
			for i := 0; i < 200; i++ {
				sampledRecord(m, &clk, r, texts[r.Intn(len(texts))])
			}
		}()
	}
	wg.Wait()

	var sum StageSums
	rows := m.SnapshotStages()
	if len(rows) != len(texts) {
		t.Fatalf("%d stage rows, want %d", len(rows), len(texts))
	}
	for _, st := range rows {
		sum.Samples += st.Samples
		sum.WallNs += st.WallNs
		for i, ns := range st.Ns {
			sum.Ns[i] += ns
		}
	}
	if sum.Samples != 800 {
		t.Fatalf("samples = %d, want 800", sum.Samples)
	}
	if got := m.StageTotals(); got.Samples != sum.Samples || got.WallNs != sum.WallNs || got.Ns != sum.Ns {
		t.Fatalf("StageTotals %+v != sum over rows %+v", got, sum)
	}
}

// TestWaitBreakdownNeverExceedsWall: whatever stages the engine switches
// through, a statement's committed stage sums stay within its measured
// wall latency — and, the clock being exclusive, equal it.
func TestWaitBreakdownNeverExceedsWall(t *testing.T) {
	m := New(Config{})
	rng := rand.New(rand.NewSource(42))
	var clk stage.Clock
	for i := 0; i < 50; i++ {
		q := fmt.Sprintf("q%d", i)
		for j := 0; j <= i%3; j++ {
			sampledRecord(m, &clk, rng, q)
		}
	}
	rows := m.SnapshotStages()
	if len(rows) != 50 {
		t.Fatalf("%d stage rows, want 50", len(rows))
	}
	for _, st := range rows {
		var sum int64
		for _, ns := range st.Ns {
			if ns < 0 {
				t.Fatalf("negative stage time: %+v", st)
			}
			sum += ns
		}
		if sum > st.WallNs {
			t.Fatalf("breakdown %d ns exceeds wall %d ns: %+v", sum, st.WallNs, st)
		}
		if sum != st.WallNs {
			t.Errorf("breakdown %d ns, wall %d ns: the stages must sum to wall", sum, st.WallNs)
		}
	}
}
