package lock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestExclusiveBlocksAndFIFO(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, "t"); err != nil {
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
			if err := m.Acquire(s, "t"); err != nil {
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

// holding reports whether session holds resource.
func holding(m *Manager, session int64, resource string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls, ok := m.locks[resource]
	return ok && ls.holder == session
}

func TestReentrantAcquire(t *testing.T) {
	m := NewManager()
	for range 3 {
		if err := m.Acquire(1, "t"); err != nil {
			t.Fatal(err)
		}
	}
	if !holding(m, 1, "t") {
		t.Error("re-acquire dropped the lock")
	}
	// A re-acquire is one grant and one held-list entry.
	if st := m.Stats(); st.Grants != 1 || len(*m.held[1]) != 1 {
		t.Errorf("grants=%d held list=%v", st.Grants, *m.held[1])
	}
	m.ReleaseAll(1)
	if holding(m, 1, "t") {
		t.Error("still holding after ReleaseAll")
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, "b"); err != nil {
		t.Fatal(err)
	}
	// Session 1 waits for b (held by 2).
	errc := make(chan error, 1)
	go func() { errc <- m.Acquire(1, "b") }()
	time.Sleep(50 * time.Millisecond)
	// Session 2 requesting a would close the cycle: must abort.
	err := m.Acquire(2, "a")
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
	m.Acquire(1, "a")
	m.Acquire(2, "b")
	m.Acquire(3, "c")
	go m.Acquire(1, "b") // 1 -> 2
	time.Sleep(30 * time.Millisecond)
	go m.Acquire(2, "c") // 2 -> 3
	time.Sleep(30 * time.Millisecond)
	err := m.Acquire(3, "a") // 3 -> 1: cycle
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected ErrDeadlock, got %v", err)
	}
	m.ReleaseAll(3)
	m.ReleaseAll(2)
	m.ReleaseAll(1)
}

func TestReleaseAll(t *testing.T) {
	m := NewManager()
	m.Acquire(7, "a")
	m.Acquire(7, "b")
	m.Acquire(7, "c")
	if m.Stats().Held != 3 {
		t.Fatalf("Held = %d", m.Stats().Held)
	}
	m.ReleaseAll(7)
	if st := m.Stats(); st.Held != 0 {
		t.Errorf("after ReleaseAll: %+v", st)
	}
	if holding(m, 7, "a") {
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
				if err := m.Acquire(s, res); err != nil {
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
		if err := m.Acquire(session, fmt.Sprintf("r!t!%x", i)); err != nil {
			tb.Fatal(err)
		}
	}
}

// A writer's end-of-statement release must cost what the statement
// locked, not what the lock table holds: with another session keeping
// 10 000 row locks, ReleaseAll looks at the statement's one write gate and
// nothing else.
func TestReleaseAllVisitsOnlyOwnLocks(t *testing.T) {
	m := NewManager()
	holdRowLocks(t, m, 1, 10000)
	if err := m.Acquire(2, "w!t"); err != nil {
		t.Fatal(err)
	}
	before := m.visited
	m.ReleaseAll(2)
	if got := m.visited - before; got != 1 {
		t.Errorf("the statement's ReleaseAll visited %d resources, want 1", got)
	}
	if holding(m, 2, "w!t") {
		t.Error("the statement still holds its write gate")
	}
	if st := m.Stats(); st.Held != 10000 {
		t.Errorf("writer holds %d locks after the reader's release, want 10000", st.Held)
	}
	m.ReleaseAll(1)
	if st := m.Stats(); st.Held != 0 || len(m.locks) != 0 || len(m.held) != 0 {
		t.Errorf("after both releases: held=%d locks=%d sessions=%d", st.Held, len(m.locks), len(m.held))
	}
}

// Single releases keep the held list in step, a re-acquire does not list
// a resource twice, and a waiter granted by ReleaseAll gets a list of its
// own.
func TestHeldListTracksRelease(t *testing.T) {
	m := NewManager()
	for _, r := range []string{"b", "a", "w!a"} {
		if err := m.Acquire(1, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Acquire(1, "a"); err != nil { // a re-acquire lists nothing new
		t.Fatal(err)
	}
	m.Release(1, "w!a")
	if got := *m.held[1]; len(got) != 2 {
		t.Fatalf("held list %v, want the two row locks", got)
	}
	granted := make(chan error, 1)
	go func() { granted <- m.Acquire(2, "a") }()
	for m.Stats().Waiting == 0 {
		time.Sleep(time.Millisecond)
	}
	m.ReleaseAll(1)
	if err := <-granted; err != nil || !holding(m, 2, "a") {
		t.Errorf("waiter after ReleaseAll: err=%v holding=%v", err, holding(m, 2, "a"))
	}
	m.ReleaseAll(2)
	if len(m.locks) != 0 || len(m.held) != 0 {
		t.Errorf("leftover state: locks=%d sessions=%d", len(m.locks), len(m.held))
	}
}

// An uncontended write gate taken and dropped per statement recycles its
// held list and keeps its state in the table: steady state allocates
// nothing.
func TestUncontendedAcquireReleaseAllocs(t *testing.T) {
	m := NewManager()
	m.Acquire(1, "w!protein")
	m.ReleaseAll(1)
	allocs := testing.AllocsPerRun(100, func() {
		m.Acquire(1, "w!protein")
		m.ReleaseAll(1)
	})
	if allocs != 0 {
		t.Errorf("acquire+release of an uncontended lock: %.0f allocs, want 0", allocs)
	}
}

// BenchmarkReleaseAllForeignLocks is an INSERT's lock traffic (one write
// gate, released at statement end) while another session keeps 10 000
// row locks.
func BenchmarkReleaseAllForeignLocks(b *testing.B) {
	m := NewManager()
	holdRowLocks(b, m, 1, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Acquire(2, "w!protein"); err != nil {
			b.Fatal(err)
		}
		m.ReleaseAll(2)
	}
}
