package monitor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sqlparser"
)

// profiledRecord drives one execution through the full phase-2 path the
// engine uses: prepare (which hands the handle the statement's digest,
// the key Flag resolves a text to) → Profiled → wait accumulation →
// Finish → FlushWaits.
func profiledRecord(m *Monitor, text string, execNs, lockNs, ioNs, fsyncNs, pinNs int64) bool {
	h := m.StartStatement(text)
	h.Parsed("SELECT", nil)
	h.Keyed(sqlparser.DigestOf(text))
	ok := h.Profiled()
	h.AddLockWait(time.Duration(lockNs))
	h.AddWaits(execNs, ioNs, fsyncNs, pinNs)
	h.Finish(1, 0, 1, nil)
	h.FlushWaits()
	return ok
}

func TestFlagUnflagLifecycle(t *testing.T) {
	m := New(Config{MaxFlagged: 2})
	if n := m.FlagCount(); n != 0 {
		t.Fatalf("FlagCount = %d at start", n)
	}
	if !m.Flag("q1", FlagReasonManual, true, 0) {
		t.Fatal("Flag(q1) refused")
	}
	if !m.Flag("q2", FlagReasonP95, false, time.Hour) {
		t.Fatal("Flag(q2) refused")
	}
	// Bounded set: a third flag must be refused at MaxFlagged=2.
	if m.Flag("q3", FlagReasonP95, false, time.Hour) {
		t.Fatal("Flag(q3) accepted beyond MaxFlagged")
	}
	if n := m.FlagCount(); n != 2 {
		t.Fatalf("FlagCount = %d, want 2", n)
	}

	fs := m.SnapshotFlags()
	if len(fs) != 2 || fs[0].Text != "q1" || fs[1].Text != "q2" {
		t.Fatalf("SnapshotFlags = %+v", fs)
	}
	if !fs[0].Manual || !fs[0].Expires.IsZero() {
		t.Fatalf("manual flag not pinned: %+v", fs[0])
	}
	if fs[1].Expires.IsZero() {
		t.Fatalf("TTL flag has no expiry: %+v", fs[1])
	}

	// TTL expiry removes q2 but never the manual q1.
	if n := m.ExpireFlags(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("ExpireFlags = %d, want 1", n)
	}
	if !m.Unflag("q1") {
		t.Fatal("Unflag(q1) = false")
	}
	if m.Unflag("q1") {
		t.Fatal("Unflag(q1) twice = true")
	}
	if n := m.FlagCount(); n != 0 {
		t.Fatalf("FlagCount = %d after teardown", n)
	}
}

func TestFlagRefreshAndManualPinning(t *testing.T) {
	m := New(Config{})
	m.Flag("q", FlagReasonTrend, false, time.Minute)
	exp1 := m.SnapshotFlags()[0].Expires
	time.Sleep(time.Millisecond)
	m.Flag("q", FlagReasonTrend, false, time.Minute) // renew
	if exp2 := m.SnapshotFlags()[0].Expires; !exp2.After(exp1) {
		t.Fatalf("TTL not renewed: %v -> %v", exp1, exp2)
	}
	m.Flag("q", FlagReasonManual, true, 0) // promote to manual
	if f := m.SnapshotFlags()[0]; !f.Manual || !f.Expires.IsZero() {
		t.Fatalf("manual promotion failed: %+v", f)
	}
	// A later automatic flag must not demote the manual pin.
	m.Flag("q", FlagReasonTrend, false, time.Minute)
	if f := m.SnapshotFlags()[0]; !f.Manual || !f.Expires.IsZero() {
		t.Fatalf("manual flag demoted: %+v", f)
	}
	if n := m.ExpireFlags(time.Now().Add(24 * time.Hour)); n != 0 {
		t.Fatalf("manual flag expired: %d", n)
	}
}

// TestWaitParity is the satellite parity check at the source: the sums
// over the per-statement breakdowns (what ima_waits renders) must equal
// the monitor-global totals (what the engine_wait_* metrics render),
// because recordWaits advances both in the same call.
func TestWaitParity(t *testing.T) {
	m := New(Config{})
	texts := []string{"q0", "q1", "q2"}
	for _, q := range texts {
		m.Flag(q, FlagReasonManual, true, 0)
	}
	rng := rand.New(rand.NewSource(7))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		seed := rng.Int63()
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				q := texts[r.Intn(len(texts))]
				if !profiledRecord(m, q, r.Int63n(1000), r.Int63n(1000),
					r.Int63n(1000), r.Int63n(1000), r.Int63n(1000)) {
					t.Error("flagged statement not profiled")
					return
				}
			}
		}()
	}
	wg.Wait()

	var sum WaitTotals
	var samples int64
	for _, f := range m.SnapshotFlags() {
		samples += f.Samples
		sum.ExecNs += f.Waits.ExecNs
		sum.LockNs += f.Waits.LockNs
		sum.IONs += f.Waits.IONs
		sum.FsyncNs += f.Waits.FsyncNs
		sum.PinWaitNs += f.Waits.PinWaitNs
	}
	if samples != 800 {
		t.Fatalf("samples = %d, want 800", samples)
	}
	if got := m.WaitTotals(); got != sum {
		t.Fatalf("WaitTotals %+v != sum over flags %+v", got, sum)
	}
	if m.Phase2Overhead() <= 0 {
		t.Error("Phase2Overhead not accounted")
	}
}

// TestWaitRecordDroppedAfterUnflag: a breakdown arriving after its flag
// vanished is dropped entirely — the global counters must not drift
// from the per-statement sums.
func TestWaitRecordDroppedAfterUnflag(t *testing.T) {
	m := New(Config{})
	m.Flag("q", FlagReasonManual, true, 0)
	h := m.StartStatement("q")
	h.Parsed("SELECT", nil)
	h.Keyed(sqlparser.DigestOf("q"))
	if !h.Profiled() {
		t.Fatal("not profiled")
	}
	h.AddWaits(100, 100, 100, 100)
	h.Finish(1, 0, 1, nil)
	m.Unflag("q") // races the in-flight execution
	h.FlushWaits()
	if got := m.WaitTotals(); got != (WaitTotals{}) {
		t.Fatalf("WaitTotals advanced after unflag: %+v", got)
	}
}

// TestWaitBreakdownNeverExceedsWall is the satellite property test:
// whatever the engine accumulates, the committed per-statement
// breakdown sum stays within the measured wall latency.
func TestWaitBreakdownNeverExceedsWall(t *testing.T) {
	m := New(Config{MaxFlagged: 64})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		q := fmt.Sprintf("q%d", i)
		m.Flag(q, FlagReasonManual, true, 0)
		// Exaggerated buckets: the engine's measured windows can
		// overshoot the wall by clock-read skew, so feed breakdowns far
		// beyond any plausible wall time and rely on the flush clamp.
		profiledRecord(m, q, rng.Int63n(1e9), rng.Int63n(1e9),
			rng.Int63n(1e9), rng.Int63n(1e9), rng.Int63n(1e9))
	}
	for _, f := range m.SnapshotFlags() {
		if f.Waits.Sum() > f.Waits.WallNs {
			t.Fatalf("breakdown %d ns exceeds wall %d ns: %+v",
				f.Waits.Sum(), f.Waits.WallNs, f)
		}
	}
}

// TestFlaggerP95Threshold drives the policy end to end over real
// recorded latencies with an absolute threshold low enough that every
// statement qualifies.
func TestFlaggerP95Threshold(t *testing.T) {
	m := New(Config{})
	fl := NewFlagger(m, FlaggerConfig{MinSamples: 8, P95Threshold: time.Nanosecond, TTL: time.Minute})
	for i := 0; i < 16; i++ {
		record(m, "SELECT slow FROM t", []string{"t"})
	}
	flagged, _ := fl.Evaluate(time.Now())
	if flagged != 1 {
		t.Fatalf("flagged = %d, want 1", flagged)
	}
	fs := m.SnapshotFlags()
	if len(fs) != 1 || fs[0].Reason != FlagReasonP95 {
		t.Fatalf("flags = %+v", fs)
	}
	// Second interval with no further executions: nothing new to judge,
	// the existing flag stays until its TTL.
	flagged, expired := fl.Evaluate(time.Now())
	if flagged != 0 || expired != 0 {
		t.Fatalf("idle evaluate: flagged=%d expired=%d", flagged, expired)
	}
	// And once the TTL passes, evaluation expires it.
	if _, expired = fl.Evaluate(time.Now().Add(2 * time.Minute)); expired != 1 {
		t.Fatalf("expired = %d, want 1", expired)
	}
}

// TestFlaggerTrend: a statement running at a steady baseline is left
// alone; when its interval p95 blows past TrendFactor × baseline it is
// flagged with the trend reason. Latency histograms are injected
// directly through the record path by busy-waiting a controlled time.
func TestFlaggerTrend(t *testing.T) {
	m := New(Config{})
	fl := NewFlagger(m, FlaggerConfig{MinSamples: 4, TrendFactor: 3, TTL: time.Minute})

	slowRecord := func(d time.Duration, n int) {
		for i := 0; i < n; i++ {
			h := m.StartStatement("SELECT x FROM t")
			h.Parsed("SELECT", nil)
			deadline := time.Now().Add(d)
			for time.Now().Before(deadline) {
			}
			h.Finish(1, 0, 1, nil)
		}
	}

	slowRecord(50*time.Microsecond, 8) // establish the baseline
	if flagged, _ := fl.Evaluate(time.Now()); flagged != 0 {
		t.Fatal("baseline interval flagged")
	}
	slowRecord(50*time.Microsecond, 8) // steady: still unflagged
	if flagged, _ := fl.Evaluate(time.Now()); flagged != 0 {
		t.Fatal("steady interval flagged")
	}
	slowRecord(5*time.Millisecond, 8) // 100× regression
	if flagged, _ := fl.Evaluate(time.Now()); flagged != 1 {
		t.Fatal("regressed interval not flagged")
	}
	if fs := m.SnapshotFlags(); len(fs) != 1 || fs[0].Reason != FlagReasonTrend {
		t.Fatalf("flags = %+v", fs)
	}
}

// TestFlagChurnRace hammers flag/unflag/expiry from several goroutines
// while sessions record profiled statements — the -race churn stress of
// the satellite list. Invariants: FlagCount never exceeds the cap and
// always matches the snapshot length at quiesce.
func TestFlagChurnRace(t *testing.T) {
	m := New(Config{MaxFlagged: 8})
	const texts = 16
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ { // recorders
		seed := int64(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				profiledRecord(m, fmt.Sprintf("q%d", r.Intn(texts)),
					10, 10, 10, 10, 10)
			}
		}()
	}
	for g := 0; g < 2; g++ { // flag churners
		seed := int64(100 + g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := fmt.Sprintf("q%d", r.Intn(texts))
				switch r.Intn(3) {
				case 0:
					m.Flag(q, FlagReasonP95, false, time.Millisecond)
				case 1:
					m.Unflag(q)
				case 2:
					m.ExpireFlags(time.Now())
				}
				if n := m.FlagCount(); n > 8 {
					t.Errorf("FlagCount %d exceeds cap", n)
					return
				}
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n, l := m.FlagCount(), len(m.SnapshotFlags()); n != int64(l) {
		t.Fatalf("FlagCount %d != snapshot length %d", n, l)
	}
}

// The flagger differences per-shape histograms: a shape whose interval
// p95 grows past TrendFactor × its baseline is flagged although no
// single text ever repeats, so no text alone would reach MinSamples.
func TestFlaggerJudgesShapesNotTexts(t *testing.T) {
	m := New(Config{})
	fl := NewFlagger(m, FlaggerConfig{MinSamples: 16, TrendFactor: 3, TTL: time.Minute})
	var cell atomic.Pointer[Shape]
	cell.Store(m.Publish(42, "SELECT x FROM t WHERE k = 0", "SELECT", []string{"t"}, nil, nil, Estimates{}))
	n := 0
	interval := func(d time.Duration) int {
		for i := 0; i < 32; i++ {
			n++
			shapedRecord(m, &cell, n, d)
		}
		flagged, _ := fl.Evaluate(time.Now())
		return flagged
	}
	if interval(60*time.Microsecond) != 0 || interval(60*time.Microsecond) != 0 {
		t.Fatal("baseline intervals flagged")
	}
	if interval(180*time.Microsecond) != 1 { // p95 bucket bound 65.5µs → 262µs
		t.Fatal("tripled p95 not flagged")
	}
	fs := m.SnapshotFlags()
	if len(fs) != 1 || fs[0].Hash != 42 || fs[0].Reason != FlagReasonTrend {
		t.Fatalf("flags = %+v", fs)
	}
}

// A steady stream of one hot shape — point selects with log-normal
// latencies around 6µs, 2000 per evaluation — is never flagged: a flag
// on it would put every one of its statements on the profiled path.
func TestSteadyHotShapeNeverFlagged(t *testing.T) {
	m := New(Config{})
	fl := NewFlagger(m, FlaggerConfig{})
	var cell atomic.Pointer[Shape]
	cell.Store(m.Publish(42, "SELECT x FROM t WHERE k = 0", "SELECT", []string{"t"}, nil, nil, Estimates{}))
	r := rand.New(rand.NewSource(5))
	n := 0
	for eval := 0; eval < 25; eval++ {
		for i := 0; i < 2000; i++ {
			n++
			shapedRecord(m, &cell, n, time.Duration(6000*math.Exp(0.5*r.NormFloat64())))
		}
		if flagged, _ := fl.Evaluate(time.Now()); flagged != 0 || m.FlagCount() != 0 {
			t.Fatalf("evaluation %d flagged the steady shape: %+v", eval, m.SnapshotFlags())
		}
	}
}
