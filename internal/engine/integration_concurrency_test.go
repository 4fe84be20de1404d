package engine_test

// Engine-level concurrency integration test: many sessions issue mixed
// point selects and joins against one DB with the monitor and the
// storage daemon both live, then the IMA virtual tables are checked
// for consistency — no duplicate statement hashes, frequencies that
// sum to the monitor's cumulative execution count, and workload rows
// that all resolve to a known statement. This exercises the sharded
// monitor through the full stack (sensors → shards → snapshot merge →
// virtual tables) rather than through the monitor API alone.

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/ima"
	"repro/internal/monitor"
)

func TestConcurrentSessionsIMAConsistency(t *testing.T) {
	dir := t.TempDir()
	mon := monitor.New(monitor.Config{})
	db, err := engine.Open(engine.Config{Dir: filepath.Join(dir, "src"), PoolPages: 256, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := ima.Register(ima.Sources{DB: db, Mon: mon}); err != nil {
		t.Fatal(err)
	}
	target, err := engine.Open(engine.Config{Dir: filepath.Join(dir, "wdb"), PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()

	// Schema and data: two joinable tables.
	setup := db.NewSession()
	setupStmts := 0
	exec := func(sql string) {
		t.Helper()
		if _, err := setup.Exec(sql); err != nil {
			t.Fatal(err)
		}
		setupStmts++
	}
	exec("CREATE TABLE item (id INTEGER PRIMARY KEY, name VARCHAR(32))")
	exec("CREATE TABLE part (id INTEGER PRIMARY KEY, item_ref INTEGER)")
	for base := 0; base < 200; base += 50 {
		vi, vp := "", ""
		for i := base; i < base+50; i++ {
			if vi != "" {
				vi += ", "
				vp += ", "
			}
			vi += fmt.Sprintf("(%d, 'item%03d')", i, i)
			vp += fmt.Sprintf("(%d, %d)", i, (i*7)%200)
		}
		exec("INSERT INTO item (id, name) VALUES " + vi)
		exec("INSERT INTO part (id, item_ref) VALUES " + vp)
	}
	setup.Close()

	// Statement pool: far fewer distinct shapes (LIMIT stays in the
	// statement, so each text is one) than the default 1000 capacity, so
	// nothing is evicted and frequencies must be exact.
	const pool = 64
	texts := make([]string, pool)
	for i := range texts {
		if i%2 == 0 {
			texts[i] = fmt.Sprintf("SELECT name FROM item WHERE id = %d LIMIT %d", i, i+1)
		} else {
			texts[i] = fmt.Sprintf(
				"SELECT i.name FROM item i JOIN part p ON i.id = p.item_ref WHERE p.id = %d LIMIT %d", i, i+1)
		}
	}
	issued := make([]atomic.Int64, pool)

	// Storage daemon live during the run: a short interval, so workload
	// drains race with the writers.
	d, err := daemon.New(daemon.Config{
		Source: db, Mon: mon, Target: target,
		Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	daemonDone := make(chan error, 1)
	go func() { daemonDone <- d.Run(ctx) }()

	goroutines := 8
	each := 150
	if testing.Short() {
		goroutines, each = 4, 40
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for i := 0; i < each; i++ {
				k := (g*each + i*13) % pool
				if _, err := s.Exec(texts[k]); err != nil {
					t.Error(err)
					return
				}
				issued[k].Add(1)
			}
		}(g)
	}
	wg.Wait()
	cancel()
	if err := <-daemonDone; err != nil && err != context.Canceled {
		t.Fatalf("daemon: %v", err)
	}

	total := int64(goroutines * each)
	if got := mon.TotalStatements(); got != total+int64(setupStmts) {
		t.Fatalf("TotalStatements = %d, want %d (cumulative count must survive daemon drains)",
			got, total+int64(setupStmts))
	}

	// Read the IMA tables through SQL, like any monitoring client.
	// ima_workload is read first: the statements table read afterwards
	// then includes the workload query itself, so every workload hash
	// must resolve against it.
	reader := db.NewSession()
	defer reader.Close()
	wlRes, err := reader.Exec("SELECT hash FROM ima_workload")
	if err != nil {
		t.Fatal(err)
	}
	stRes, err := reader.Exec("SELECT hash, query_text, frequency FROM ima_statements")
	if err != nil {
		t.Fatal(err)
	}

	byHash := map[int64]bool{}
	byText := map[string]int64{}
	var sumFreq int64
	for _, row := range stRes.Rows {
		hash, text, freq := row[0].I, row[1].S, row[2].I
		if byHash[hash] {
			t.Fatalf("duplicate hash %d in ima_statements", hash)
		}
		byHash[hash] = true
		if _, dup := byText[text]; dup {
			t.Fatalf("duplicate text in ima_statements: %q", text)
		}
		byText[text] = freq
		sumFreq += freq
	}

	// Every monitored execution is one frequency count: the workload,
	// the setup, plus the ima_workload query that committed before the
	// statements read started.
	if want := total + int64(setupStmts) + 1; sumFreq != want {
		t.Fatalf("sum(frequency) over ima_statements = %d, want %d", sumFreq, want)
	}
	for k, text := range texts {
		if got, want := byText[text], issued[k].Load(); got != want {
			t.Fatalf("frequency(%q) = %d, want %d", text, got, want)
		}
	}
	for _, row := range wlRes.Rows {
		if !byHash[row[0].I] {
			t.Fatalf("ima_workload hash %d has no ima_statements row", row[0].I)
		}
	}
}
