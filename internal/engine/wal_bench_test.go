package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Group-commit benchmarks: durable single-row transactions from one and
// from 16 sessions. Committers write disjoint tables (their write gates
// would otherwise serialize them ahead of the log) so the only shared
// resource is the WAL — which is the thing under test. The extra
// fsyncs/txn metric is the paper-relevant number: committers queued on
// the log's I/O mutex share the fsync of the one ahead of them.

func benchCommit(b *testing.B, par int) {
	db, err := Open(Config{Dir: b.TempDir(), PoolPages: 2048})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	s := db.NewSession()
	for g := 0; g < par; g++ {
		if _, err := s.Exec(fmt.Sprintf("CREATE TABLE bt%d (id INTEGER PRIMARY KEY)", g)); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()
	st0 := db.Stats()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.NewSession()
			defer sess.Close()
			for {
				n := next.Add(1)
				if n > int64(b.N) {
					return
				}
				// Autocommit: one durable transaction per statement.
				if _, err := sess.Exec(fmt.Sprintf("INSERT INTO bt%d VALUES (%d)", g, n)); err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	b.StopTimer()
	st1 := db.Stats()
	b.ReportMetric(float64(st1.WALFsyncs-st0.WALFsyncs)/float64(b.N), "fsyncs/txn")
}

func BenchmarkCommitParallel1(b *testing.B)  { benchCommit(b, 1) }
func BenchmarkCommitParallel16(b *testing.B) { benchCommit(b, 16) }
