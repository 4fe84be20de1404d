package engine

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
)

var stormSeed = flag.Int64("storm-seed", 0, "seed of TestDDLStatementStorm's schedules (0: from the clock)")

// stormAllowed reports whether err may come out of a statement racing
// DDL: the table or index it names is gone (it raced DROP), or a writer
// lost a conflict or a deadlock. Anything else — a read past the end of
// a removed file, an index without storage, a wrong row — is a bug.
func stormAllowed(err error) bool {
	if err == nil || errors.Is(err, ErrWriteConflict) || errors.Is(err, lock.ErrDeadlock) {
		return true
	}
	msg := err.Error()
	return strings.Contains(msg, "unknown table") || strings.Contains(msg, "unknown index") ||
		strings.Contains(msg, "does not exist")
}

// TestDDLStatementStorm races every kind of DDL against cached point and
// range readers, autocommit writers (one of them updating through the
// index s_a) and multi-statement transactions across two tables: on s an index is dropped and rebuilt (plainly and
// ONLINE), the table is rebuilt by MODIFY and its statistics refreshed;
// x is dropped and recreated. Every error must be one stormAllowed
// admits, every row a reader gets must match its predicate, every
// session must finish by a deadline, and the row counters must equal a
// rescan at the end. A DDL that runs without draining the table it
// changes — DROP INDEX once did, naming only the index — fails it. The
// schedules come from a seed, printed, that -storm-seed replays.
func TestDDLStatementStorm(t *testing.T) {
	seed := *stormSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("storm seed %d (replay with -storm-seed %d)", seed, seed)
	run := 1500 * time.Millisecond
	if testing.Short() {
		run = 500 * time.Millisecond
	}

	db := testDB(t)
	setup := db.NewSession()
	defer setup.Close()
	const rows = 300
	mustExec(t, setup, "CREATE TABLE s (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
	for i := 0; i < rows; i += 50 {
		var vals []string
		for j := i; j < i+50; j++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, 0)", j, j%37))
		}
		mustExec(t, setup, "INSERT INTO s VALUES "+strings.Join(vals, ", "))
	}
	mustExec(t, setup, "CREATE INDEX s_a ON s (a)")
	createX := []string{"CREATE TABLE x (id INTEGER PRIMARY KEY, a INTEGER)",
		"INSERT INTO x VALUES (0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7)"}
	for _, q := range createX {
		mustExec(t, setup, q)
	}

	stop := time.Now().Add(run)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		rounds []string
	)
	errs := make(chan error, 64)
	worker := func(name string, n int, body func(s *Session, rng *rand.Rand, i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			rng := rand.New(rand.NewSource(seed + int64(n)))
			i := 0
			for ; time.Now().Before(stop); i++ {
				if err := body(s, rng, i); err != nil {
					errs <- fmt.Errorf("%s: %w", name, err)
					return
				}
			}
			mu.Lock()
			rounds = append(rounds, fmt.Sprintf("%s %d: %d", name, n, i))
			mu.Unlock()
		}()
	}
	// exec runs sql and keeps only errors stormAllowed refuses.
	exec := func(s *Session, sql string) (*Result, error) {
		res, err := s.Exec(sql)
		if !stormAllowed(err) {
			return nil, fmt.Errorf("%s: %w", sql, err)
		}
		return res, nil
	}

	worker("ddl on s", 1, func(s *Session, rng *rand.Rand, i int) error {
		ddl := []string{"DROP INDEX IF EXISTS s_a", "CREATE INDEX s_a ON s (a)", "CREATE INDEX s_a ON s (a) ONLINE",
			"MODIFY s TO BTREE ON id", "MODIFY s TO HEAP", "CREATE STATISTICS FOR s (a)"}[rng.Intn(6)]
		if strings.HasPrefix(ddl, "CREATE INDEX") {
			if _, err := exec(s, "DROP INDEX IF EXISTS s_a"); err != nil {
				return err
			}
		}
		_, err := exec(s, ddl)
		return err
	})
	worker("ddl on x", 2, func(s *Session, rng *rand.Rand, i int) error {
		if _, err := exec(s, "DROP TABLE IF EXISTS x"); err != nil {
			return err
		}
		time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
		for _, q := range createX {
			if _, err := exec(s, q); err != nil {
				return err
			}
		}
		if rng.Intn(2) == 0 {
			_, err := exec(s, "CREATE INDEX x_a ON x (a)")
			return err
		}
		return nil
	})
	for r := 0; r < 2; r++ {
		worker("point reader", 10+r, func(s *Session, rng *rand.Rand, i int) error {
			k := rng.Intn(rows)
			res, err := exec(s, fmt.Sprintf("SELECT id, a, b FROM s WHERE id = %d", k))
			if err != nil {
				return err
			}
			if res == nil || len(res.Rows) > 1 || (len(res.Rows) == 1 && res.Rows[0][0].I != int64(k)) {
				return fmt.Errorf("point select of %d got %v", k, res)
			}
			_, err = exec(s, fmt.Sprintf("SELECT a FROM x WHERE id = %d", k%8))
			return err
		})
	}
	worker("range reader", 20, func(s *Session, rng *rand.Rand, i int) error {
		v := rng.Intn(37)
		res, err := exec(s, fmt.Sprintf("SELECT id, a FROM s WHERE a = %d", v))
		if err != nil || res == nil {
			return err
		}
		for _, r := range res.Rows {
			if r[1].I != int64(v) || r[0].I%37 != int64(v) {
				return fmt.Errorf("range select a = %d got row %v", v, r)
			}
		}
		_, err = exec(s, fmt.Sprintf("SELECT COUNT(*) FROM s WHERE a >= %d AND a < %d", v, v+3))
		return err
	})
	for w := 0; w < 2; w++ {
		next := rows + 100_000*(w+1)
		worker("autocommit writer", 30+w, func(s *Session, rng *rand.Rand, i int) error {
			var sql string
			switch rng.Intn(4) {
			case 0:
				sql = fmt.Sprintf("INSERT INTO s VALUES (%d, %d, 0)", next, next%37)
				next++
			case 1:
				sql = fmt.Sprintf("DELETE FROM s WHERE id = %d", rows+100_000*(w+1)+rng.Intn(max(1, next-rows-100_000*(w+1))))
			case 2:
				sql = fmt.Sprintf("UPDATE x SET a = a + 1 WHERE id = %d", rng.Intn(8))
			default:
				sql = fmt.Sprintf("UPDATE s SET b = b + 1 WHERE id = %d", rng.Intn(rows))
			}
			_, err := exec(s, sql)
			return err
		})
	}
	worker("index writer", 35, func(s *Session, rng *rand.Rand, i int) error {
		// Finds its rows through s_a while the index is dropped and
		// rebuilt, and through the primary B-Tree or the heap as MODIFY
		// changes the structure under the cached statement.
		_, err := exec(s, fmt.Sprintf("UPDATE s SET b = b + 1 WHERE a = %d", rng.Intn(37)))
		return err
	})
	for w := 0; w < 2; w++ {
		worker("transaction", 40+w, func(s *Session, rng *rand.Rand, i int) error {
			if err := s.Begin(); err != nil {
				return err
			}
			for _, q := range []string{
				fmt.Sprintf("UPDATE s SET b = b + 1 WHERE id = %d", rng.Intn(rows)),
				fmt.Sprintf("SELECT id, a FROM s WHERE a = %d", rng.Intn(37)),
				fmt.Sprintf("UPDATE x SET a = a + 1 WHERE id = %d", rng.Intn(8)),
				fmt.Sprintf("UPDATE s SET b = b + 1 WHERE id = %d", rng.Intn(rows)),
			} {
				if _, err := s.Exec(q); err != nil {
					s.Rollback()
					if !stormAllowed(err) {
						return fmt.Errorf("%s: %w", q, err)
					}
					return nil
				}
			}
			if err := s.Commit(); !stormAllowed(err) {
				return err
			}
			return nil
		})
	}

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(run + 10*time.Second):
		t.Fatalf("storm sessions still running %v after the deadline", 10*time.Second)
	}
	t.Logf("rounds: %s", strings.Join(rounds, ", "))
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for _, table := range []string{"s", "x"} {
		res, err := setup.Exec("SELECT COUNT(*) FROM " + table)
		if err != nil {
			if table == "x" && stormAllowed(err) {
				continue
			}
			t.Fatal(err)
		}
		if n := db.TableState(table).Rows; n != res.Rows[0][0].I {
			t.Errorf("%s: Rows() = %d, a rescan counts %d", table, n, res.Rows[0][0].I)
		}
	}
}
