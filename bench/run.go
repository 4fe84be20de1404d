package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/analyzer"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netsql"
	"repro/internal/sqlparser"
)

// Physical designs a workload's set-up applies after the load.
const (
	designHeap      = iota // primary keys only, heap storage: the paper's unoptimised state
	designBTree            // MODIFY TO BTREE + CREATE STATISTICS on every table
	designReference        // designBTree plus the 33 reference indexes
)

// spec fixes everything about a workload except the seed. Nothing in
// it is read from the environment apart from the CPU count, and no
// value adapts to how fast the build under test runs.
type spec struct {
	name string
	why  string

	scale  int // proteins at full size
	design int
	// passes: the traffic is whole passes of the 50-query complex mix
	// on one session; otherwise min(nproc,2) closed-loop clients each
	// draw block statements per block from a seeded stream (for the
	// mixed stream a multiple of len(mixedPass), so blocks are whole
	// passes too).
	passes bool
	block  int
	// mixed adds joins and writes to the stream; remote sends it
	// through netsql on loopback instead of in-process sessions.
	mixed, remote bool
	// untunedPasses > 0 makes the timed phase the control loop: that
	// many monitored passes on the untuned design, Poll+Analyze+Apply,
	// then tuned passes until the deadline.
	untunedPasses int
	// tailPct is the constant tail percentile behind stmt_ms_tail.
	tailPct float64
	// traceEvery: the traced run records spans for every n-th
	// statement of a client. Coprime with 50 for pass workloads so every
	// query of the mix is sampled.
	traceEvery int
}

var specs = []spec{
	{
		name:  "point_select",
		why:   "Zipfian primary-key selects that fit the pool: parser, plan cache, monitor and daemon do the work, executor and storage almost none",
		scale: 20000, design: designHeap,
		block: 4000, tailPct: 95, traceEvery: 64,
	},
	{
		name:  "complex_join",
		why:   "the 50 analysis joins on a fixed tuned design 7x larger than the pool: executor and buffer pool dominate, monitor and analyzer changes must stay flat",
		scale: 12000, design: designReference,
		passes: true, tailPct: 95, traceEvery: 7,
	},
	{
		name:  "mixed_rw",
		why:   "60/20/20 selects, joins and autocommit writes over netsql with fsync on: the only workload through WAL, MVCC, row locks, vacuum and the network frontend",
		scale: 20000, design: designBTree,
		block: 60, mixed: true, remote: true, tailPct: 90, traceEvery: 64,
	},
	{
		name:  "tuning_loop",
		why:   "untuned complex passes, then Poll, Analyze, Apply, then tuned passes: the only workload that times daemon, workload DB, analyzer, what-if and DDL",
		scale: 6000, design: designHeap,
		passes: true, untunedPasses: 2, tailPct: 90, traceEvery: 7,
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // scale 500, short blocks, single set-up: the test size
	tmpBase  string // the run's private directory is created here
	outDir   string // trace files go here
}

// Knobs that differ between the full size and the smoke size.
const (
	setupRepeats   = 3 // set-ups per run; setup_s is their median
	pollEvery      = time.Second
	smokePollEvery = 100 * time.Millisecond
	smokeScale     = 500
	smokeBlock     = 120
	recordLoopN    = 20000
)

// blockResult is one block of the timed phase: a fixed batch of
// statements, identical in composition to every other block of the
// run, with the monitor on or off throughout.
type blockResult struct {
	On     bool    `json:"on"`
	Stmts  int     `json:"stmts"`
	WallMs float64 `json:"wall_ms"`
	P50Ms  float64 `json:"p50_ms"`
	TailMs float64 `json:"tail_ms"`
	CalMs  float64 `json:"cal_ms"` // mean calibration slice taken beside this block
}

// bench is one workload run in one process.
type bench struct {
	cfg  runConfig
	sp   *spec
	tr   *tracer
	dir  string
	sys  *core.System
	data *dataset

	scale   int
	nClient int
	clients []*client
	server  *netsql.Server
	stopSrv context.CancelFunc

	// Pass workloads.
	sess *engine.Session
	mix  []string
	ref  []fingerprint
	seq  int64 // statements issued on sess, for trace sampling

	blk hist // the latencies of the block in progress

	cal calState // the pass session's calibration kernel

	attempted, failed atomic.Int64
	firstErr          atomic.Pointer[string]

	pollMu   sync.Mutex
	pollMs   []float64
	pollStop chan struct{}
	pollDone chan struct{}

	res *results
}

// fail counts one failed operation and keeps the first reason for the
// report.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	msg := fmt.Sprintf(format, args...)
	b.firstErr.CompareAndSwap(nil, &msg)
}

// runWorkload executes one workload run and returns its metrics:
// end-to-end ones from an untraced run, per-layer ones from a traced
// run.
func runWorkload(cfg runConfig) (*results, error) {
	sp := specByName(cfg.workload)
	if sp == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// Pinned so that GC pacing and scheduler width are the same on
	// every run, whatever the environment says.
	debug.SetGCPercent(100)
	initCalibration()
	nproc := runtime.NumCPU()
	if nproc > 2 {
		nproc = 2
	}
	runtime.GOMAXPROCS(nproc)

	if err := os.MkdirAll(cfg.tmpBase, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.tmpBase, "run-"+sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := &bench{cfg: cfg, sp: sp, dir: dir, scale: sp.scale, nClient: nproc,
		res: &results{Workload: sp.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds, Smoke: cfg.smoke}}
	if sp.passes {
		b.nClient = 1
	}
	if cfg.smoke {
		b.scale = smokeScale
	}
	if cfg.trace {
		b.tr = newTracer()
	}
	// On an error path, leave nothing running or open behind.
	defer func() {
		b.stopPoller()
		if b.sys != nil {
			b.closeClients()
			b.sys.Close()
		}
	}()

	// Set-up, several times over; the last one is kept and measured on.
	repeats := setupRepeats
	if cfg.smoke {
		repeats = 1
	}
	var setupS []float64
	for i := 0; i < repeats; i++ {
		if b.sys != nil {
			if err := b.teardown(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if err := b.setup(filepath.Join(dir, fmt.Sprintf("s%d", i))); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	// The warm pass's statements are persisted before the clock starts,
	// so workload-DB growth below belongs to the timed phase alone.
	b.poll()
	c0 := b.counters("timed.start")
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	b.startPoller()
	tm, err := b.timed()
	b.stopPoller()
	if err != nil {
		return nil, err
	}
	b.poll()

	c1 := b.counters("timed.end")
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.GC()
	var mLive runtime.MemStats
	runtime.ReadMemStats(&mLive)

	if cfg.trace {
		b.probes()
	}
	if err := b.closeAndVerify(); err != nil {
		return nil, err
	}

	b.res.Attempted = b.attempted.Load()
	b.res.Failed = b.failed.Load()
	b.res.Correct = b.res.Failed == 0
	if p := b.firstErr.Load(); p != nil {
		b.res.FirstError = *p
	}
	if cfg.trace {
		b.layerMetrics(tm, c0, c1, &m0, &m1)
		path := filepath.Join(cfg.outDir, "trace-"+sp.name+".json")
		if err := b.tr.write(path, sp.name, cfg.seed); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	} else {
		b.endToEndMetrics(tm, setupS, c0, c1, &mLive)
	}
	return b.res, nil
}

// setup is what setup_s times: open, load, physical design,
// checkpoint, one warm pass.
func (b *bench) setup(dir string) error {
	root := b.tr.begin("setup", 0, 0)
	defer b.tr.end(root)

	id := b.tr.begin("core.open", root, 0)
	sys, err := core.Open(core.Options{Dir: dir, PoolPages: 2048})
	b.tr.end(id)
	if err != nil {
		return err
	}
	b.sys = sys

	id = b.tr.begin("engine.load", root, 0)
	b.data, err = loadNREF(sys.DB, b.scale, b.cfg.seed)
	b.tr.end(id)
	if err != nil {
		return err
	}

	id = b.tr.begin("engine.ddl", root, 0)
	err = b.applyDesign()
	b.tr.end(id)
	if err != nil {
		return err
	}

	id = b.tr.begin("storage.checkpoint", root, 0)
	err = sys.DB.Checkpoint()
	b.tr.end(id)
	if err != nil {
		return err
	}

	id = b.tr.begin("warm", root, 0)
	defer b.tr.end(id)
	if b.sp.passes {
		return b.warmPasses()
	}
	return b.warmClients()
}

func (b *bench) applyDesign() error {
	if b.sp.design == designHeap {
		return nil
	}
	s := b.sys.Session()
	defer s.Close()
	var ddl []string
	for _, t := range nrefTables {
		ddl = append(ddl, "MODIFY "+t+" TO BTREE", "CREATE STATISTICS FOR "+t)
	}
	if b.sp.design == designReference {
		ddl = append(ddl, referenceIndexes()...)
	}
	for _, q := range ddl {
		if _, err := s.Exec(q); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	return nil
}

// warmPasses prepares a pass workload. complex_join runs the mix once
// serially and keeps the fingerprints as the reference its parallel
// passes must reproduce. tuning_loop only runs the first round of ten
// templates: its reference comes from the first untuned timed pass.
func (b *bench) warmPasses() error {
	b.mix = complexMix(b.scale, b.cfg.seed)
	b.sess = b.sys.Session()
	warm := b.mix
	if b.sp.untunedPasses > 0 {
		warm = b.mix[:10]
	} else if _, err := b.sess.Exec("SET PARALLEL 1"); err != nil {
		return err
	}
	b.ref = make([]fingerprint, len(b.mix))
	for i, q := range warm {
		res, err := b.sess.Exec(q)
		if err != nil {
			return fmt.Errorf("warm pass: %w", err)
		}
		b.ref[i] = fingerprintRows(res.Rows)
	}
	if b.sp.untunedPasses == 0 {
		if _, err := b.sess.Exec("SET PARALLEL 2"); err != nil {
			return err
		}
	}
	return nil
}

// teardown discards a set-up that was only timed.
func (b *bench) teardown() error {
	b.closeClients()
	b.clients = nil
	err := b.sys.Close()
	b.sys = nil
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return nil
}

func (b *bench) closeClients() {
	for _, c := range b.clients {
		c.conn.close()
		if b.sp.remote {
			c.local.Close()
		}
	}
	if b.server != nil {
		b.stopSrv()
		b.server.Close()
		b.server = nil
	}
	if b.sess != nil {
		b.sess.Close()
		b.sess = nil
	}
}

// poll runs one storage-daemon cycle. The driver owns the schedule, so
// a traced and an untraced run poll the same way and every poll can be
// a span.
func (b *bench) poll() {
	id := b.tr.begin("daemon.poll", 0, 0)
	t0 := time.Now()
	err := b.sys.Poll()
	d := time.Since(t0)
	b.tr.end(id)
	b.attempted.Add(1)
	if err != nil {
		b.fail("daemon poll: %v", err)
	}
	b.pollMu.Lock()
	b.pollMs = append(b.pollMs, ms(d))
	b.pollMu.Unlock()
}

func (b *bench) startPoller() {
	every := pollEvery
	if b.cfg.smoke {
		every = smokePollEvery
	}
	b.pollStop, b.pollDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(b.pollDone)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-b.pollStop:
				return
			case <-tick.C:
				b.poll()
			}
		}
	}()
}

// stopPoller returns once the poller goroutine has exited; it is a
// no-op when none is running.
func (b *bench) stopPoller() {
	if b.pollStop == nil {
		return
	}
	close(b.pollStop)
	<-b.pollDone
	b.pollStop = nil
}

// timing is what the timed phase hands to the metric code.
type timing struct {
	blocks []blockResult // the alternating monitor-on/off blocks
	// tuning_loop only.
	untunedPass []time.Duration
	tune        time.Duration
	analyzeD    time.Duration
	applyD      time.Duration
	report      *analyzer.Report
}

// timed runs the measured traffic for cfg.seconds.
func (b *bench) timed() (*timing, error) {
	tm := &timing{}
	deadline := time.Now().Add(time.Duration(b.cfg.seconds * float64(time.Second)))
	runBlock := b.streamBlock
	if b.sp.passes {
		runBlock = func() (int, time.Duration, float64) { return b.passBlock(false) }
	}
	if b.sp.untunedPasses > 0 {
		for i := 0; i < b.sp.untunedPasses; i++ {
			_, wall, _ := b.passBlock(i == 0)
			tm.untunedPass = append(tm.untunedPass, wall)
		}
		// The driver's own Poll must not interleave with the
		// background one.
		b.stopPoller()
		if err := b.tune(tm); err != nil {
			return nil, err
		}
		b.startPoller()
	}
	// Monitor on/off blocks in ABBA order, so drift within a quad
	// cancels in the per-pair ratios. Always whole quads: a faster build
	// runs more of them but never a different mix.
	for quad := 0; quad == 0 || time.Now().Before(deadline); quad++ {
		for _, on := range []bool{true, false, false, true} {
			b.sys.Monitor.SetEnabled(on)
			b.blk = hist{}
			n, wall, calMs := runBlock()
			tm.blocks = append(tm.blocks, blockResult{On: on, Stmts: n, WallMs: ms(wall), CalMs: calMs,
				P50Ms: b.blk.percentileMs(50), TailMs: b.blk.percentileMs(b.sp.tailPct)})
		}
	}
	b.sys.Monitor.SetEnabled(true)
	return tm, nil
}

// tune is the paper's Figure 1 loop body: store, analyse, implement.
func (b *bench) tune(tm *timing) error {
	root := b.tr.begin("tune", 0, 0)
	defer b.tr.end(root)
	t0 := time.Now()

	id := b.tr.begin("daemon.poll", root, 0)
	err := b.sys.Poll()
	b.tr.end(id)
	if err != nil {
		return fmt.Errorf("poll: %w", err)
	}

	t1 := time.Now()
	id = b.tr.begin("analyzer.analyze", root, 0)
	rep, err := b.sys.Analyze()
	b.tr.end(id)
	tm.analyzeD = time.Since(t1)
	if err != nil {
		return fmt.Errorf("analyze: %w", err)
	}

	t2 := time.Now()
	id = b.tr.begin("analyzer.apply", root, 0)
	err = b.sys.Apply(rep)
	b.tr.end(id)
	tm.applyD = time.Since(t2)
	if err != nil {
		return fmt.Errorf("apply: %w", err)
	}
	tm.tune = time.Since(t0)
	tm.report = rep
	b.attempted.Add(3)
	return nil
}

// streamBlock has every client run its share of one block, then one
// calibration slice. It returns the statements run, the time the
// slowest client took for them, and the mean slice; the statements'
// latencies are in b.blk.
func (b *bench) streamBlock() (int, time.Duration, float64) {
	n := b.sp.block
	if b.cfg.smoke {
		n = smokeBlock
	}
	var wg sync.WaitGroup
	for _, c := range b.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			t0 := time.Now()
			c.runBlock(n)
			c.busy = time.Since(t0)
			c.calD = c.cal.slice()
		}(c)
	}
	wg.Wait()
	var wall, cal time.Duration
	for _, c := range b.clients {
		b.blk.merge(&c.blk)
		wall = max(wall, c.busy)
		cal += c.calD
	}
	return n * len(b.clients), wall, ms(cal) / float64(len(b.clients))
}

// passBlock runs the 50 queries once on the pass session, checking
// every result against the reference fingerprints (or, with setRef,
// recording them), with a calibration slice after every tenth query.
// It returns like streamBlock.
func (b *bench) passBlock(setRef bool) (int, time.Duration, float64) {
	var cal time.Duration
	t0 := time.Now()
	for i, q := range b.mix {
		if i%10 == 9 {
			cal += b.cal.slice()
		}
		b.seq++
		var stmtSpan, id int32
		traced := b.tr != nil && b.seq%int64(b.sp.traceEvery) == 0
		if traced {
			stmtSpan = b.tr.begin("stmt", 0, b.seq)
			id = b.tr.begin("engine.exec", stmtSpan, b.seq)
		}
		t1 := time.Now()
		res, err := b.sess.Exec(q)
		d := time.Since(t1)
		b.tr.end(id)
		b.attempted.Add(1)
		b.blk.add(d)
		switch {
		case err != nil:
			b.fail("complex query %d: %v", i, err)
		case setRef:
			b.ref[i] = fingerprintRows(res.Rows)
		default:
			if fp := fingerprintRows(res.Rows); fp != b.ref[i] {
				b.fail("complex query %d: got %v, reference %v", i, fp, b.ref[i])
			}
		}
		if traced {
			b.traceSelect(b.sess, q, stmtSpan, b.seq)
			b.tr.end(stmtSpan)
		}
	}
	return len(b.mix), time.Since(t0) - cal, ms(cal) / float64(len(b.mix)/10)
}

// traceSelect adds the parse and plan spans of a sampled SELECT by
// replaying those two steps through their public entry points.
func (b *bench) traceSelect(s *engine.Session, sql string, parent int32, stmt int64) {
	id := b.tr.begin("sqlparser.parse", parent, stmt)
	_, perr := sqlparser.ParseNormalized(sql)
	b.tr.end(id)
	id = b.tr.begin("optimizer.plan", parent, stmt)
	_, xerr := s.Explain(sql, false)
	b.tr.end(id)
	if perr != nil || xerr != nil {
		b.attempted.Add(1)
		b.fail("trace replay of %q: parse %v, explain %v", sql, perr, xerr)
	}
}

// closeAndVerify closes the system, reopens the database through
// recovery and checks what must have survived.
func (b *bench) closeAndVerify() error {
	b.closeClients()
	id := b.tr.begin("core.close", 0, 0)
	t0 := time.Now()
	err := b.sys.Close()
	b.res.closeMs = ms(time.Since(t0))
	b.tr.end(id)
	dbDir := b.sys.DB.Dir()
	b.sys = nil
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}

	id = b.tr.begin("engine.reopen", 0, 0)
	t0 = time.Now()
	db, err := engine.Open(engine.Config{Dir: dbDir, PoolPages: 2048})
	b.res.reopenMs = ms(time.Since(t0))
	b.tr.end(id)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	s := db.NewSession()
	defer s.Close()

	b.attempted.Add(1)
	res, err := s.Exec("SELECT COUNT(*) FROM protein")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != int64(b.scale) {
		b.fail("after reopen: protein count %v (err %v), want %d", res, err, b.scale)
	}
	if b.sp.mixed {
		b.verifyLedger(s)
	}
	return nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
