// Package repro_test benchmarks the reproduction: one benchmark per
// evaluated figure plus microbenchmarks for the substrates. The
// figure-level results (relative overheads, analyzer outcome) are
// emitted as custom benchmark metrics; `cmd/benchrunner` prints the
// full tables and charts.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/ima"
	"repro/internal/monitor"
	"repro/internal/nref"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

const benchScale = 4000

var (
	benchMu   sync.Mutex
	benchRoot string
	instances = map[string]*benchInstance{}
	benchSeq  int
)

// benchFile creates a unique page file for one benchmark invocation.
func benchFile(b *testing.B, pool *storage.Pool) *storage.File {
	b.Helper()
	benchMu.Lock()
	benchSeq++
	n := benchSeq
	benchMu.Unlock()
	f, err := storage.OpenFile(fmt.Sprintf("%s/bench_%d.dat", benchRoot, n), pool)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

type benchInstance struct {
	db  *engine.DB
	mon *monitor.Monitor
	wdb *engine.DB
	dm  *daemon.Daemon
}

func TestMain(m *testing.M) {
	var err error
	benchRoot, err = os.MkdirTemp("", "repro-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	for _, inst := range instances {
		inst.db.Close()
		if inst.wdb != nil {
			inst.wdb.Close()
		}
	}
	os.RemoveAll(benchRoot)
	os.Exit(code)
}

// getInstance lazily loads one NREF database per setup, shared across
// benchmarks.
func getInstance(b *testing.B, setup string) *benchInstance {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if inst, ok := instances[setup]; ok {
		return inst
	}
	inst := &benchInstance{}
	if setup != "original" {
		inst.mon = monitor.New(monitor.Config{WorkloadCapacity: 1000})
	}
	db, err := engine.Open(engine.Config{
		Dir:       benchRoot + "/" + setup + "/db",
		PoolPages: 2048,
		Monitor:   inst.mon,
	})
	if err != nil {
		b.Fatal(err)
	}
	inst.db = db
	if inst.mon != nil {
		if err := ima.Register(ima.Sources{DB: db, Mon: inst.mon}); err != nil {
			b.Fatal(err)
		}
	}
	if err := nref.NewGenerator(benchScale, 42).Load(db); err != nil {
		b.Fatal(err)
	}
	if setup == "daemon" {
		wdb, err := engine.Open(engine.Config{Dir: benchRoot + "/" + setup + "/wdb", PoolPages: 512})
		if err != nil {
			b.Fatal(err)
		}
		inst.wdb = wdb
		dm, err := daemon.New(daemon.Config{Source: db, Mon: inst.mon, Target: wdb})
		if err != nil {
			b.Fatal(err)
		}
		inst.dm = dm
	}
	instances[setup] = inst
	return inst
}

// runWorkload executes b.N statements drawn from the generator fn.
func runWorkload(b *testing.B, inst *benchInstance, fn func(i int) string) {
	s := inst.db.NewSession()
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec(fn(i)); err != nil {
			b.Fatal(err)
		}
		// The daemon setup polls every 20000 statements, matching its
		// wall-clock cadence at the engine's statement throughput.
		if inst.dm != nil && i%20000 == 19999 {
			if err := inst.dm.Poll(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figure 4: the three workloads on the three setups ---------------

func benchComplex(b *testing.B, setup string) {
	inst := getInstance(b, setup)
	qs := nref.Complex50(benchScale)
	runWorkload(b, inst, func(i int) string { return qs[i%len(qs)] })
}

func benchJoin(b *testing.B, setup string) {
	inst := getInstance(b, setup)
	runWorkload(b, inst, func(i int) string { return nref.SimpleJoinStatement(i, benchScale) })
}

func benchSelect(b *testing.B, setup string) {
	inst := getInstance(b, setup)
	runWorkload(b, inst, func(i int) string { return nref.PointSelectStatement(i, benchScale) })
}

func BenchmarkFig4_Complex_Original(b *testing.B)   { benchComplex(b, "original") }
func BenchmarkFig4_Complex_Monitoring(b *testing.B) { benchComplex(b, "monitoring") }
func BenchmarkFig4_Complex_Daemon(b *testing.B)     { benchComplex(b, "daemon") }

func BenchmarkFig4_SimpleJoin_Original(b *testing.B)   { benchJoin(b, "original") }
func BenchmarkFig4_SimpleJoin_Monitoring(b *testing.B) { benchJoin(b, "monitoring") }
func BenchmarkFig4_SimpleJoin_Daemon(b *testing.B)     { benchJoin(b, "daemon") }

func BenchmarkFig4_PointSelect_Original(b *testing.B)   { benchSelect(b, "original") }
func BenchmarkFig4_PointSelect_Monitoring(b *testing.B) { benchSelect(b, "monitoring") }
func BenchmarkFig4_PointSelect_Daemon(b *testing.B)     { benchSelect(b, "daemon") }

// BenchmarkPointSelectZipf{1,2,8} is the point-select workload as the
// repository's benchmark (bench/, workload point_select) drives it: N
// sessions in parallel, each drawing primary keys from a Zipf(0.99)
// distribution spread over the key space by a seeded permutation,
// monitor on. Fig4_PointSelect walks the keys in order on one goroutine,
// so it never sees two sessions on one pool shard or lock-manager mutex
// and flatters anything that touches a page twice in a row; this one
// reports what a change to the statement path does under contention.
func BenchmarkPointSelectZipf1(b *testing.B) { benchPointSelectZipf(b, 1) }
func BenchmarkPointSelectZipf2(b *testing.B) { benchPointSelectZipf(b, 2) }
func BenchmarkPointSelectZipf8(b *testing.B) { benchPointSelectZipf(b, 8) }

func benchPointSelectZipf(b *testing.B, sessions int) {
	inst := getInstance(b, "monitoring")
	stmts := make([]string, benchScale)
	for i := range stmts {
		stmts[i] = nref.PointSelectStatement(i, benchScale)
	}
	// Zipf with exponent < 1 (math/rand's needs > 1): inverse CDF over
	// ranks, ranks mapped to keys by a permutation.
	cdf := make([]float64, benchScale)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), 0.99)
		cdf[i] = sum
	}
	perm := rand.New(rand.NewSource(99)).Perm(benchScale)

	prev := runtime.GOMAXPROCS(max(sessions, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(prev)
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for g := 0; g < sessions; g++ {
		n := b.N / sessions
		if g < b.N%sessions {
			n++
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			s := inst.db.NewSession()
			defer s.Close()
			r := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < n; i++ {
				rank := sort.SearchFloat64s(cdf, r.Float64()*sum)
				res, err := s.Exec(stmts[perm[min(rank, benchScale-1)]])
				if err != nil || len(res.Rows) != 1 {
					b.Errorf("point select: %d rows, %v", len(res.Rows), err)
					return
				}
			}
		}(g, n)
	}
	wg.Wait()
}

// --- Figure 5: share of monitoring -----------------------------------

func BenchmarkFig5_MonitoringShare(b *testing.B) {
	inst := getInstance(b, "monitoring")
	s := inst.db.NewSession()
	defer s.Close()
	// Warm caches so the share reflects the steady state of Figure 5's
	// right-hand side.
	for i := 0; i < 2000; i++ {
		if _, err := s.Exec(nref.PointSelectStatement(i, benchScale)); err != nil {
			b.Fatal(err)
		}
	}
	mon0 := inst.mon.TotalMonitorTime()
	b.ResetTimer()
	start := nowNano()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec(nref.PointSelectStatement(i, benchScale)); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := nowNano() - start
	monD := int64(inst.mon.TotalMonitorTime() - mon0)
	if elapsed > 0 {
		b.ReportMetric(float64(monD)/float64(elapsed)*100, "monitor-share-%")
	}
}

// --- Figures 6 & 7: the analyzer experiment --------------------------

func BenchmarkFig7_Analyzer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp(benchRoot, "fig7-")
		if err != nil {
			b.Fatal(err)
		}
		res, err := experiments.RunFig7(experiments.Config{
			Dir: dir, Scale: 2000, ComplexN: 25, JoinsN: 1, SelectsN: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.RuntimePercent, "analyser-runtime-%")
		b.ReportMetric(float64(res.IndexRecs), "indexes-recommended")
		os.RemoveAll(dir)
	}
}

// --- Figure 8: locking under contention ------------------------------

func BenchmarkFig8_Locks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp(benchRoot, "fig8-")
		if err != nil {
			b.Fatal(err)
		}
		res, err := experiments.RunFig8(experiments.Config{
			Dir: dir, Scale: 600, JoinsN: 1, SelectsN: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.LockWaits), "lock-waits")
		b.ReportMetric(float64(res.Deadlocks), "deadlocks")
		os.RemoveAll(dir)
	}
}

// --- §V-A microbenchmarks: sensor and substrate costs ----------------

func BenchmarkMonitorCall(b *testing.B) {
	m := monitor.New(monitor.Config{})
	tables := []string{"protein"}
	attrs := []string{"protein.nref_id"}
	idx := []string{"pk_protein"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := m.StartStatement("SELECT p.nref_id FROM protein p WHERE p.nref_id = 'NF00000001'")
		h.Parsed("SELECT", tables)
		h.Optimized(10, 5, 1, attrs, idx, 0)
		h.Finish(12, 0, 1, nil)
	}
}

// BenchmarkMonitorCallParallel{1,4,16} run the §V-A sensor-call
// microbenchmark from concurrent goroutines (the paper's 1M-row point
// select shape, every session issuing the same statement). The sharded
// hot path keeps ns/op flat as goroutines scale, where the seed's
// single global mutex degraded; EXPERIMENTS.md records before/after
// numbers.
func BenchmarkMonitorCallParallel1(b *testing.B)  { benchMonitorCallParallel(b, 1) }
func BenchmarkMonitorCallParallel4(b *testing.B)  { benchMonitorCallParallel(b, 4) }
func BenchmarkMonitorCallParallel16(b *testing.B) { benchMonitorCallParallel(b, 16) }

func benchMonitorCallParallel(b *testing.B, goroutines int) {
	prev := runtime.GOMAXPROCS(goroutines)
	defer runtime.GOMAXPROCS(prev)
	m := monitor.New(monitor.Config{})
	tables := []string{"protein"}
	attrs := []string{"protein.nref_id"}
	idx := []string{"pk_protein"}
	b.ReportAllocs()
	b.ResetTimer()
	// RunParallel spawns GOMAXPROCS goroutines.
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h := m.StartStatement("SELECT p.nref_id FROM protein p WHERE p.nref_id = 'NF00000001'")
			h.Parsed("SELECT", tables)
			h.Optimized(10, 5, 1, attrs, idx, 0)
			h.Finish(12, 0, 1, nil)
		}
	})
}

// BenchmarkMonitorChurnParallel{1,16} stress the opposite regime:
// every call is a distinct statement against a full table, so each
// sensor commit also evicts the globally oldest statement (the
// worst case for cross-shard coordination).
func BenchmarkMonitorChurnParallel1(b *testing.B)  { benchMonitorChurnParallel(b, 1) }
func BenchmarkMonitorChurnParallel16(b *testing.B) { benchMonitorChurnParallel(b, 16) }

func benchMonitorChurnParallel(b *testing.B, goroutines int) {
	prev := runtime.GOMAXPROCS(goroutines)
	defer runtime.GOMAXPROCS(prev)
	m := monitor.New(monitor.Config{})
	texts := make([]string, 4096)
	for i := range texts {
		texts[i] = nref.PointSelectStatement(i, 1<<20)
	}
	tables := []string{"protein"}
	attrs := []string{"protein.nref_id"}
	idx := []string{"pk_protein"}
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h := m.StartStatement(texts[ctr.Add(1)&4095])
			h.Parsed("SELECT", tables)
			h.Optimized(10, 5, 1, attrs, idx, 0)
			h.Finish(12, 0, 1, nil)
		}
	})
}

// BenchmarkPoolGetParallel{1,4,16} hammer the buffer pool's hot path
// (pin + unpin of a resident page) from concurrent goroutines over a
// fully warm pool: every iteration is a hit, so the numbers isolate
// the pool's own synchronization cost, exactly like the monitor's
// sensor-call benchmarks isolate the sensor. EXPERIMENTS.md records
// the single-mutex-vs-sharded before/after.
func BenchmarkPoolGetParallel1(b *testing.B)  { benchPoolGetParallel(b, 1) }
func BenchmarkPoolGetParallel4(b *testing.B)  { benchPoolGetParallel(b, 4) }
func BenchmarkPoolGetParallel16(b *testing.B) { benchPoolGetParallel(b, 16) }

// Half the pool's frames: with frames hash-partitioned into shards,
// a working set near capacity would overflow individual shards and
// turn the "warm hit" benchmark into a partial-eviction benchmark.
const poolBenchPages = 512

func benchPoolGetParallel(b *testing.B, goroutines int) {
	prev := runtime.GOMAXPROCS(goroutines)
	defer runtime.GOMAXPROCS(prev)
	pool := storage.NewPool(1024)
	f := benchFile(b, pool)
	defer f.Close()
	// Materialize the working set and warm the pool: after this loop
	// every page is resident and each benchmark iteration is a hit.
	for i := 0; i < poolBenchPages; i++ {
		pg, err := f.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		p, err := f.GetPage(pg)
		if err != nil {
			b.Fatal(err)
		}
		p.MarkDirty()
		p.Release()
	}
	if err := f.Flush(); err != nil {
		b.Fatal(err)
	}
	var seed atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Per-goroutine xorshift so page choice never serializes.
		rng := seed.Add(0x9e3779b97f4a7c15)
		var p storage.Page
		for pb.Next() {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			if err := f.PinPage(uint32(rng%poolBenchPages), &p); err != nil {
				b.Fatal(err)
			}
			p.Release()
		}
	})
}

// BenchmarkPoolChurnParallel16 is the eviction-heavy regime: the
// working set is twice the pool, so roughly every other get evicts.
// The single-mutex baseline paid an O(resident) LRU scan under the
// global lock per eviction; the clock sweep is O(1) amortized per
// shard.
func BenchmarkPoolChurnParallel16(b *testing.B) {
	prev := runtime.GOMAXPROCS(16)
	defer runtime.GOMAXPROCS(prev)
	pool := storage.NewPool(512)
	f := benchFile(b, pool)
	defer f.Close()
	const pages = 1024
	for i := 0; i < pages; i++ {
		if _, err := f.Allocate(); err != nil {
			b.Fatal(err)
		}
	}
	if err := f.Flush(); err != nil {
		b.Fatal(err)
	}
	var seed atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := seed.Add(0x9e3779b97f4a7c15)
		var p storage.Page
		for pb.Next() {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			if err := f.PinPage(uint32(rng%pages), &p); err != nil {
				b.Fatal(err)
			}
			p.Release()
		}
	})
}

func BenchmarkBTreePut(b *testing.B) {
	pool := storage.NewPool(4096)
	f := benchFile(b, pool)
	defer f.Close()
	bt, err := storage.CreateBTree(f)
	if err != nil {
		b.Fatal(err)
	}
	val := []byte("0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := sqltypes.EncodeKey(nil, sqltypes.NewInt(int64(i)))
		if err := bt.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeGet(b *testing.B) {
	pool := storage.NewPool(4096)
	f := benchFile(b, pool)
	defer f.Close()
	bt, err := storage.CreateBTree(f)
	if err != nil {
		b.Fatal(err)
	}
	const n = 100000
	for i := 0; i < n; i++ {
		bt.Put(sqltypes.EncodeKey(nil, sqltypes.NewInt(int64(i))), []byte("v"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := sqltypes.EncodeKey(nil, sqltypes.NewInt(int64(i%n)))
		if _, ok, err := bt.Get(key); err != nil || !ok {
			b.Fatal(err, ok)
		}
	}
}

func BenchmarkHeapInsert(b *testing.B) {
	pool := storage.NewPool(4096)
	f := benchFile(b, pool)
	defer f.Close()
	h := storage.OpenHeap(f, 1, 0)
	rec := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseNormalized(b *testing.B) {
	const sql = "SELECT p.nref_id, o.organism_name FROM protein p JOIN organism o ON p.nref_id = o.nref_id WHERE p.nref_id = 'NF00001234'"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparser.ParseNormalized(sql); err != nil {
			b.Fatal(err)
		}
	}
}

func nowNano() int64 { return time.Now().UnixNano() }

// --- Vectorized execution: batch vs row pipeline ---------------------

const scanAggRows = 20000

var (
	scanAggOnce sync.Once
	scanAggDB   *engine.DB
	scanAggErr  error
)

// scanAggInstance lazily builds a dedicated instance with one wide
// heap table, large enough that scan+decode dominates over parse and
// plan-cache overhead.
func scanAggInstance(b *testing.B) *engine.DB {
	b.Helper()
	scanAggOnce.Do(func() {
		db, err := engine.Open(engine.Config{Dir: benchRoot + "/scanagg/db", PoolPages: 4096})
		if err != nil {
			scanAggErr = err
			return
		}
		s := db.NewSession()
		_, err = s.Exec("CREATE TABLE scanrows (id INTEGER PRIMARY KEY, a INTEGER, f FLOAT, grp INTEGER, x INTEGER, y FLOAT)")
		s.Close()
		if err != nil {
			scanAggErr = err
			return
		}
		rows := make([]sqltypes.Row, scanAggRows)
		for i := range rows {
			rows[i] = sqltypes.Row{
				sqltypes.NewInt(int64(i)),
				sqltypes.NewInt(int64(i * 7919 % 1000)),
				sqltypes.NewFloat(float64(i%977) * 1.5),
				sqltypes.NewInt(int64(i % 16)),
				sqltypes.NewInt(int64(i % 8191)),
				sqltypes.NewFloat(float64(i) * 0.25),
			}
		}
		if err := db.BulkInsert("scanrows", rows); err != nil {
			scanAggErr = err
			return
		}
		scanAggDB = db
	})
	if scanAggErr != nil {
		b.Fatal(scanAggErr)
	}
	return scanAggDB
}

// BenchmarkScanAgg runs a scan+filter+aggregate statement — the query
// shape batch execution targets. EXPERIMENTS.md records the numbers the
// row-at-a-time executor had on it.
func BenchmarkScanAgg(b *testing.B) {
	db := scanAggInstance(b)
	s := db.NewSession()
	defer s.Close()
	const q = "SELECT grp, COUNT(*), SUM(f) FROM scanrows WHERE a < 300 GROUP BY grp"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 16 {
			b.Fatalf("groups = %d", len(res.Rows))
		}
	}
}

// BenchmarkScanAggParallel8 runs the same scan+filter+aggregate
// statement from 8 concurrent sessions over a warm pool. Every batch
// step pins up to 16 pages, so this is the workload the sharded buffer
// pool exists for: under the single global pool mutex all sessions
// serialize on every pin/unpin. EXPERIMENTS.md records before/after.
func BenchmarkScanAggParallel8(b *testing.B) {
	const goroutines = 8
	prev := runtime.GOMAXPROCS(goroutines)
	defer runtime.GOMAXPROCS(prev)
	db := scanAggInstance(b)
	const q = "SELECT grp, COUNT(*), SUM(f) FROM scanrows WHERE a < 300 GROUP BY grp"
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		s := db.NewSession()
		defer s.Close()
		for pb.Next() {
			res, err := s.Exec(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 16 {
				b.Fatalf("groups = %d", len(res.Rows))
			}
		}
	})
}

// benchScanAggMorsel runs the same statement on a single session with
// n-way intra-query morsel parallelism: one query, n workers pulling
// 64-page morsels from a shared dispenser. Contrast with
// benchScanAggParallel, which measures inter-query parallelism.
// EXPERIMENTS.md records the scaling curve.
func benchScanAggMorsel(b *testing.B, workers int) {
	if prev := runtime.GOMAXPROCS(0); prev < workers {
		runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(prev)
	}
	db := scanAggInstance(b)
	s := db.NewSession()
	defer s.Close()
	s.SetParallel(workers)
	const q = "SELECT grp, COUNT(*), SUM(f) FROM scanrows WHERE a < 300 GROUP BY grp"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 16 {
			b.Fatalf("groups = %d", len(res.Rows))
		}
	}
}

func BenchmarkScanAggMorsel1(b *testing.B) { benchScanAggMorsel(b, 1) }
func BenchmarkScanAggMorsel4(b *testing.B) { benchScanAggMorsel(b, 4) }
func BenchmarkScanAggMorsel8(b *testing.B) { benchScanAggMorsel(b, 8) }

// BenchmarkBatchScan measures the storage-layer batch scan in
// isolation: page-at-a-time pinning into a reused record batch. The
// inner loop must stay allocation-free (TestScanBatchAllocs pins the
// invariant; this reports the amortized per-scan numbers).
func BenchmarkBatchScan(b *testing.B) {
	pool := storage.NewPool(4096)
	f := benchFile(b, pool)
	defer f.Close()
	h := storage.OpenHeap(f, 1, 0)
	rec := make([]byte, 64)
	for i := 0; i < scanAggRows; i++ {
		if _, err := h.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
	var rb storage.RecBatch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := h.ScanBatch()
		rows := 0
		for {
			ok, err := it.NextBatchMax(&rb, 1024)
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			rows += rb.Len()
		}
		if rows != scanAggRows {
			b.Fatalf("scanned %d rows", rows)
		}
	}
}

// --- Ablations: design choices called out in DESIGN.md ----------------

// BenchmarkAblation_PlanCacheOff measures the point select with the
// plan cache defeated (invalidated before every statement): the cost
// of parsing + optimizing every time, i.e. what Figure 5's warm-cache
// effect saves.
func BenchmarkAblation_PlanCacheOff(b *testing.B) {
	inst := getInstance(b, "original")
	s := inst.db.NewSession()
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.db.InvalidatePlans()
		if _, err := s.Exec(nref.PointSelectStatement(i, benchScale)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_MonitorRing compares sensor cost across statement
// ring capacities: the ring keeps the commit O(1), so capacity must
// not matter.
func BenchmarkAblation_MonitorRing(b *testing.B) {
	for _, capacity := range []int{10, 1000, 100000} {
		b.Run(fmt.Sprintf("cap%d", capacity), func(b *testing.B) {
			m := monitor.New(monitor.Config{StatementCapacity: capacity})
			for i := 0; i < b.N; i++ {
				h := m.StartStatement(nref.PointSelectStatement(i, 1<<20))
				h.Parsed("SELECT", []string{"protein"})
				h.Finish(1, 0, 1, nil)
			}
		})
	}
}

// BenchmarkAblation_BufferPool compares a complex query under a
// starved pool (64 pages) vs the default (2048): the IO counters the
// monitor records come from exactly this difference.
func BenchmarkAblation_BufferPool(b *testing.B) {
	for _, pages := range []int{64, 2048} {
		b.Run(fmt.Sprintf("pages%d", pages), func(b *testing.B) {
			dir, err := os.MkdirTemp(benchRoot, "pool-")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			db, err := engine.Open(engine.Config{Dir: dir, PoolPages: pages})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if err := nref.NewGenerator(2000, 42).Load(db); err != nil {
				b.Fatal(err)
			}
			q := nref.Complex50(2000)[0]
			s := db.NewSession()
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_IndexVsScan measures the same selective query with
// and without its index — the raw material of every analyzer win.
func BenchmarkAblation_IndexVsScan(b *testing.B) {
	dir, err := os.MkdirTemp(benchRoot, "ixvs-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db, err := engine.Open(engine.Config{Dir: dir, PoolPages: 2048})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := nref.NewGenerator(4000, 42).Load(db); err != nil {
		b.Fatal(err)
	}
	q := "SELECT name FROM protein WHERE taxonomy_id = 3"
	s := db.NewSession()
	defer s.Close()
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Exec(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	if _, err := s.Exec("CREATE INDEX ix_abl_tax ON protein (taxonomy_id)"); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Exec("CREATE STATISTICS FOR protein (taxonomy_id)"); err != nil {
		b.Fatal(err)
	}
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Exec(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
