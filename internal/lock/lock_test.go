package lock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSharedLocksAreCompatible(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, "t", Shared); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(2, "t", Shared) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("second shared lock blocked")
	}
	st := m.Stats()
	if st.Held != 2 || st.Waits != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestExclusiveBlocksAndFIFO(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, "t", Exclusive); err != nil {
		t.Fatal(err)
	}
	var order []int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, s := range []int64{2, 3} {
		wg.Add(1)
		s := s
		go func() {
			defer wg.Done()
			if err := m.Acquire(s, "t", Exclusive); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
			time.Sleep(10 * time.Millisecond)
			m.Release(s, "t")
		}()
		// Give each goroutine time to enqueue so the FIFO order is
		// deterministic.
		time.Sleep(50 * time.Millisecond)
	}
	if got := m.Stats().Waiting; got != 2 {
		t.Errorf("Waiting = %d", got)
	}
	m.Release(1, "t")
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 2 || order[1] != 3 {
		t.Errorf("grant order = %v, want [2 3]", order)
	}
	if st := m.Stats(); st.Held != 0 || st.Waiting != 0 {
		t.Errorf("final stats: %+v", st)
	}
}

func TestWriterNotStarvedByReaders(t *testing.T) {
	m := NewManager()
	m.Acquire(1, "t", Shared)
	// Writer queues behind the reader.
	writerDone := make(chan error, 1)
	go func() { writerDone <- m.Acquire(2, "t", Exclusive) }()
	time.Sleep(50 * time.Millisecond)
	// A new reader must now wait behind the queued writer.
	readerDone := make(chan error, 1)
	go func() { readerDone <- m.Acquire(3, "t", Shared) }()
	time.Sleep(50 * time.Millisecond)
	select {
	case <-readerDone:
		t.Fatal("reader jumped the writer queue")
	default:
	}
	m.Release(1, "t")
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	m.Release(2, "t")
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
}

func TestReentrantAndUpgrade(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, "t", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, "t", Shared); err != nil {
		t.Fatal(err)
	}
	// Sole-holder upgrade succeeds immediately.
	if err := m.Acquire(1, "t", Exclusive); err != nil {
		t.Fatal(err)
	}
	if !m.Holding(1, "t", Exclusive) {
		t.Error("upgrade did not stick")
	}
	// X then S is a no-op.
	if err := m.Acquire(1, "t", Shared); err != nil {
		t.Fatal(err)
	}
	if !m.Holding(1, "t", Exclusive) {
		t.Error("downgrade happened implicitly")
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	// Session 1 waits for b (held by 2).
	errc := make(chan error, 1)
	go func() { errc <- m.Acquire(1, "b", Exclusive) }()
	time.Sleep(50 * time.Millisecond)
	// Session 2 requesting a would close the cycle: must abort.
	err := m.Acquire(2, "a", Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected ErrDeadlock, got %v", err)
	}
	if m.Stats().Deadlocks != 1 {
		t.Errorf("Deadlocks = %d", m.Stats().Deadlocks)
	}
	// Victim releases; session 1 proceeds.
	m.ReleaseAll(2)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestThreeWayDeadlock(t *testing.T) {
	m := NewManager()
	m.Acquire(1, "a", Exclusive)
	m.Acquire(2, "b", Exclusive)
	m.Acquire(3, "c", Exclusive)
	go m.Acquire(1, "b", Exclusive) // 1 -> 2
	time.Sleep(30 * time.Millisecond)
	go m.Acquire(2, "c", Exclusive) // 2 -> 3
	time.Sleep(30 * time.Millisecond)
	err := m.Acquire(3, "a", Exclusive) // 3 -> 1: cycle
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected ErrDeadlock, got %v", err)
	}
	m.ReleaseAll(3)
	m.ReleaseAll(2)
	m.ReleaseAll(1)
}

func TestReleaseAll(t *testing.T) {
	m := NewManager()
	m.Acquire(7, "a", Shared)
	m.Acquire(7, "b", Exclusive)
	m.Acquire(7, "c", Shared)
	if m.Stats().Held != 3 {
		t.Fatalf("Held = %d", m.Stats().Held)
	}
	m.ReleaseAll(7)
	if st := m.Stats(); st.Held != 0 {
		t.Errorf("after ReleaseAll: %+v", st)
	}
	if m.Holding(7, "a", Shared) {
		t.Error("still holding after ReleaseAll")
	}
}

func TestConcurrentStress(t *testing.T) {
	m := NewManager()
	const sessions = 16
	const iters = 200
	resources := []string{"r1", "r2", "r3"}
	var deadlocks atomic.Int64
	var wg sync.WaitGroup
	for s := int64(1); s <= sessions; s++ {
		wg.Add(1)
		s := s
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res := resources[(int(s)+i)%len(resources)]
				mode := Shared
				if i%5 == 0 {
					mode = Exclusive
				}
				if err := m.Acquire(s, res, mode); err != nil {
					if errors.Is(err, ErrDeadlock) {
						deadlocks.Add(1)
						m.ReleaseAll(s)
						continue
					}
					t.Error(err)
					return
				}
				m.Release(s, res)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("stress test deadlocked (undetected cycle or lost wakeup)")
	}
	if st := m.Stats(); st.Held != 0 || st.Waiting != 0 {
		t.Errorf("locks leaked: %+v", st)
	}
}

// holdRowLocks makes session hold n distinct row-style resources.
func holdRowLocks(tb testing.TB, m *Manager, session int64, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		if err := m.Acquire(session, fmt.Sprintf("r!t!%x", i), Exclusive); err != nil {
			tb.Fatal(err)
		}
	}
}

// A reader's end-of-statement release must cost what the reader locked,
// not what the lock table holds: with another session keeping 10 000 row
// locks, ReleaseAll looks at the reader's one table lock and nothing
// else.
func TestReleaseAllVisitsOnlyOwnLocks(t *testing.T) {
	m := NewManager()
	holdRowLocks(t, m, 1, 10000)
	if err := m.Acquire(2, "t", Shared); err != nil {
		t.Fatal(err)
	}
	before := m.visited
	m.ReleaseAll(2)
	if got := m.visited - before; got != 1 {
		t.Errorf("reader's ReleaseAll visited %d resources, want 1", got)
	}
	if m.Holding(2, "t", Shared) {
		t.Error("reader still holds its table lock")
	}
	if st := m.Stats(); st.Held != 10000 {
		t.Errorf("writer holds %d locks after the reader's release, want 10000", st.Held)
	}
	m.ReleaseAll(1)
	if st := m.Stats(); st.Held != 0 || len(m.locks) != 0 || len(m.held) != 0 {
		t.Errorf("after both releases: held=%d locks=%d sessions=%d", st.Held, len(m.locks), len(m.held))
	}
}

// Single releases keep the held list in step, upgrades do not list a
// resource twice, and a waiter granted by ReleaseAll gets a list of its
// own.
func TestHeldListTracksReleaseAndUpgrade(t *testing.T) {
	m := NewManager()
	for _, r := range []string{"b", "a", "w!a"} {
		if err := m.Acquire(1, r, Shared); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Acquire(1, "a", Exclusive); err != nil { // sole holder upgrades in place
		t.Fatal(err)
	}
	m.Release(1, "w!a")
	if got := *m.held[1]; len(got) != 2 {
		t.Fatalf("held list %v, want the two table locks", got)
	}
	granted := make(chan error, 1)
	go func() { granted <- m.Acquire(2, "a", Exclusive) }()
	for m.Stats().Waiting == 0 {
		time.Sleep(time.Millisecond)
	}
	m.ReleaseAll(1)
	if err := <-granted; err != nil || !m.Holding(2, "a", Exclusive) {
		t.Errorf("waiter after ReleaseAll: err=%v holding=%v", err, m.Holding(2, "a", Exclusive))
	}
	m.ReleaseAll(2)
	if len(m.locks) != 0 || len(m.held) != 0 {
		t.Errorf("leftover state: locks=%d sessions=%d", len(m.locks), len(m.held))
	}
}

// An uncontended table lock taken and dropped per statement recycles its
// state: steady state allocates nothing.
func TestUncontendedAcquireReleaseAllocs(t *testing.T) {
	m := NewManager()
	m.Acquire(1, "protein", Shared)
	m.ReleaseAll(1)
	allocs := testing.AllocsPerRun(100, func() {
		m.Acquire(1, "protein", Shared)
		m.ReleaseAll(1)
	})
	if allocs != 0 {
		t.Errorf("acquire+release of an uncontended lock: %.0f allocs, want 0", allocs)
	}
}

// BenchmarkReleaseAllForeignLocks is a point select's lock traffic (one
// shared table lock, released at statement end) while another session
// keeps 10 000 row locks.
func BenchmarkReleaseAllForeignLocks(b *testing.B) {
	m := NewManager()
	holdRowLocks(b, m, 1, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Acquire(2, "protein", Shared); err != nil {
			b.Fatal(err)
		}
		m.ReleaseAll(2)
	}
}
