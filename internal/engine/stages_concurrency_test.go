package engine_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/ima"
	"repro/internal/monitor"
	"repro/internal/sqlparser"
	"repro/internal/stage"
)

// TestStageSumEqualsWallUnderConcurrency samples every statement while
// four sessions run cached point selects, full scans, contended UPDATEs
// and DELETEs on one table of a 16-page pool and vacuum runs beside them.
// A session's clock is its own, so no reader, writer or vacuum pass can
// charge another's: per digest the stage columns of ima_stages sum to
// wall_ns exactly, samples equal the executions run, and the monitor's
// totals are the sum of the rows.
func TestStageSumEqualsWallUnderConcurrency(t *testing.T) {
	defer engine.SampleEveryStatement()()
	mon := monitor.New(monitor.Config{})
	db, err := engine.Open(engine.Config{Dir: t.TempDir(), PoolPages: 16, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := ima.Register(ima.Sources{DB: db, Mon: mon}); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	defer s.Close()
	exec := func(q string) *engine.Result {
		t.Helper()
		res, err := s.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	exec("CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)")
	var vals []string
	for i := 0; i < 400; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i))
	}
	exec("INSERT INTO acct (id, bal) VALUES " + strings.Join(vals, ", "))

	const sessions, rounds = 4, 25
	var runs sync.Map // digest -> *atomic.Int64: executions attempted
	run := func(sess *engine.Session, q string) {
		n, _ := runs.LoadOrStore(sqlparser.DigestOf(q), new(atomic.Int64))
		n.(*atomic.Int64).Add(1)
		if _, err := sess.Exec(q); err != nil && !errors.Is(err, engine.ErrWriteConflict) {
			t.Errorf("%s: %v", q, err)
		}
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Vacuum(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			defer sess.Close()
			for i := 0; i < rounds; i++ {
				run(sess, fmt.Sprintf("SELECT bal FROM acct WHERE id = %d", (g*rounds+i)%100))
				run(sess, "SELECT SUM(bal) FROM acct")
				run(sess, "UPDATE acct SET bal = bal + 1 WHERE id < 20")
				run(sess, fmt.Sprintf("DELETE FROM acct WHERE id = %d", 100+g*rounds+i))
			}
		}()
	}
	wg.Wait()
	close(stop)
	bg.Wait()

	totals := mon.StageTotals() // before the read below adds its own sample
	res := exec("SELECT * FROM ima_stages")
	var sum monitor.StageSums
	seen := map[uint64]bool{}
	for _, r := range res.Rows {
		hash, samples, wall := uint64(r[1].I), r[2].I, r[3].I
		seen[hash] = true
		var stages int64
		for i := range stage.N {
			ns := r[4+int(i)].I
			stages += ns
			sum.Ns[i] += ns
		}
		sum.Samples += samples
		sum.WallNs += wall
		if stages != wall {
			t.Errorf("digest %d: stages sum to %d ns, wall_ns %d", hash, stages, wall)
		}
		if n, ok := runs.Load(hash); ok && n.(*atomic.Int64).Load() != samples {
			t.Errorf("digest %d: %d samples, %d executions", hash, samples, n.(*atomic.Int64).Load())
		}
	}
	runs.Range(func(hash, _ any) bool {
		if !seen[hash.(uint64)] {
			t.Errorf("digest %d has no ima_stages row", hash)
		}
		return true
	})
	if sum.Samples != totals.Samples || sum.WallNs != totals.WallNs || sum.Ns != totals.Ns {
		t.Errorf("ima_stages rows sum to %+v, monitor totals %+v", sum, totals)
	}
}
