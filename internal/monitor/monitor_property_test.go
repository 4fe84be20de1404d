package monitor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestRingInvariants drives random statement streams through monitors
// of random capacities and checks the structural invariants: the
// statement ring never exceeds its capacity, survivors are the most
// recent distinct statements, frequencies sum to the number of
// executions of surviving statements, and the workload relation has a
// row for at most every live and every parked evicted entry, whose
// executions, with the dropped ones, are every execution.
func TestRingInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		stmtCap := 2 + r.Intn(30)
		m := New(Config{StatementCapacity: stmtCap})
		total := 1 + r.Intn(300)
		distinctPool := 1 + r.Intn(60)

		counts := map[string]int64{}
		var order []string // last-seen order of distinct statements
		for i := 0; i < total; i++ {
			text := fmt.Sprintf("SELECT %d", r.Intn(distinctPool))
			h := m.StartStatement(text)
			h.Parsed("SELECT", []string{"t"})
			h.Finish(1, 0, 1, nil)
			counts[text]++
			for j, s := range order {
				if s == text {
					order = append(order[:j], order[j+1:]...)
					break
				}
			}
			order = append(order, text)
		}

		snap := m.Snapshot()
		if len(snap.Statements) > stmtCap {
			return false
		}
		if len(snap.Workload) > 2*stmtCap {
			return false
		}
		var execs int64
		for _, w := range snap.Workload {
			execs += w.Executions
		}
		if execs+m.WorkloadDropped() != int64(total) {
			return false
		}
		if m.TotalStatements() != int64(total) {
			return false
		}
		// A statement that was evicted and re-observed restarts its
		// frequency, so the surviving frequency is bounded by the true
		// count but must stay positive.
		for _, si := range snap.Statements {
			if si.Frequency < 1 || si.Frequency > counts[si.Text] {
				return false
			}
		}
		// When no eviction was possible, frequencies are exact.
		if distinctPool <= stmtCap {
			for _, si := range snap.Statements {
				if si.Frequency != counts[si.Text] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestQuickEvictionMatchesSingleRingModel checks, for random streams,
// capacities and shard counts, that the sharded statement table is
// observably identical to the seed's single ring: the survivors are
// exactly the model's (overwrite-oldest FIFO over distinct statements)
// and the snapshot returns them in insertion order. This pins down the
// tentpole requirement that sharding must not change eviction
// semantics, whichever shard each statement hashes to.
func TestQuickEvictionMatchesSingleRingModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		stmtCap := 1 + r.Intn(24)
		shards := 1 << r.Intn(4) // 1..8 ways
		m := New(Config{StatementCapacity: stmtCap, Shards: shards})

		var model []string // distinct statements, oldest first
		inModel := map[string]bool{}
		total := 1 + r.Intn(400)
		pool := 1 + r.Intn(50)
		for i := 0; i < total; i++ {
			text := fmt.Sprintf("SELECT %d", r.Intn(pool))
			h := m.StartStatement(text)
			h.Parsed("SELECT", []string{"t"})
			h.Finish(1, 0, 1, nil)
			if !inModel[text] {
				if len(model) == stmtCap {
					evicted := model[0]
					model = model[1:]
					delete(inModel, evicted)
				}
				model = append(model, text)
				inModel[text] = true
			}
		}

		snap := m.SnapshotStatements()
		if len(snap) != len(model) {
			return false
		}
		for i, si := range snap {
			if si.Text != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickWorkloadDrainRoundTrip checks, for random shard counts and
// random interleavings of commits and polls that land a random prefix of
// what they read, that the workload relation round-trips against a
// per-statement model: each read returns one row per statement with
// unlanded executions, in insertion order, carrying exactly their sums,
// and landing takes exactly the landed rows.
func TestQuickWorkloadDrainRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New(Config{StatementCapacity: 16, Shards: 1 << r.Intn(4)})

		type sum struct{ execs, rows int64 }
		model := map[uint64]sum{} // unlanded sums per digest
		var order []uint64        // digests in insertion order
		poll := func() bool {
			got := m.SnapshotWorkload()
			i := 0
			for _, d := range order {
				if want, ok := model[d]; ok {
					if i == len(got) || got[i].Hash != d || got[i].Executions != want.execs || got[i].Rows != want.rows {
						return false
					}
					i++
				}
			}
			if i != len(got) {
				return false
			}
			landed := got[:r.Intn(len(got)+1)]
			m.Landed(landed)
			for _, w := range landed {
				delete(model, w.Hash)
			}
			return true
		}
		ops := 1 + r.Intn(500)
		for op := 0; op < ops; op++ {
			if r.Intn(10) == 0 {
				if !poll() {
					return false
				}
				continue
			}
			text := fmt.Sprintf("SELECT %d", op%8)
			h := m.StartStatement(text)
			h.Parsed("SELECT", []string{"t"})
			h.Finish(1, 0, int64(op), nil) // Rows carries the op index
			d := HashStatement(text)
			if !slices.Contains(order, d) {
				order = append(order, d)
			}
			w := model[d]
			model[d] = sum{w.execs + 1, w.rows + int64(op)}
		}
		return poll()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotIsConsistentUnderLoad takes snapshots while writers run
// and checks each snapshot is internally consistent (run with -race to
// catch synchronization bugs).
func TestSnapshotIsConsistentUnderLoad(t *testing.T) {
	m := New(Config{StatementCapacity: 20})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3000; i++ {
			h := m.StartStatement(fmt.Sprintf("SELECT %d", i%40))
			h.Parsed("SELECT", []string{"t"})
			h.Finish(1, 0, 1, nil)
		}
	}()
	for i := 0; i < 200; i++ {
		snap := m.Snapshot()
		if len(snap.Statements) > 20 || len(snap.Workload) > 2*20 {
			t.Fatalf("snapshot exceeds capacities: %d stmts, %d workload",
				len(snap.Statements), len(snap.Workload))
		}
		for _, si := range snap.Statements {
			if si.Frequency <= 0 {
				t.Fatalf("non-positive frequency: %+v", si)
			}
		}
	}
	<-done
}
