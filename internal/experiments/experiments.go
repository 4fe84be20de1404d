// Package experiments implements the paper's evaluation (§V): one
// driver per figure, each returning structured results plus a rendered
// report. The absolute numbers depend on the host; what must hold is
// the shape the paper reports — who wins, by roughly what factor, and
// where the crossovers are. EXPERIMENTS.md records paper vs. measured.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/ima"
	"repro/internal/monitor"
	"repro/internal/nref"
)

// Config scales the experiments. The paper used 100M NREF rows, 50
// complex queries, 50,000 simple joins and 1,000,000 point selects; we
// keep the 50 complex queries and scale the rest proportionally so a
// run finishes in seconds.
type Config struct {
	Dir          string // working directory (databases are created below it)
	Scale        int    // proteins (default 8000)
	ComplexN     int    // complex queries (default 50)
	JoinsN       int    // simple-join statements (default 10000)
	SelectsN     int    // point-select statements (default 50000)
	PoolPages    int    // buffer pool (default 2048)
	DaemonPeriod time.Duration
}

func (c *Config) fill() {
	if c.Scale <= 0 {
		c.Scale = 8000
	}
	if c.ComplexN <= 0 {
		c.ComplexN = 50
	}
	if c.JoinsN <= 0 {
		c.JoinsN = 10000
	}
	if c.SelectsN <= 0 {
		c.SelectsN = 50000
	}
	if c.PoolPages <= 0 {
		c.PoolPages = 2048
	}
	if c.DaemonPeriod <= 0 {
		c.DaemonPeriod = 500 * time.Millisecond
	}
}

// instance is one Ingres setup: Original (no monitoring code),
// Monitoring (sensors in core), or Daemon (sensors + storage daemon).
type instance struct {
	name   string
	db     *engine.DB
	mon    *monitor.Monitor
	wdb    *engine.DB
	daemon *daemon.Daemon
	stop   chan struct{}
	done   chan struct{}
}

// newInstance loads a fresh NREF database under dir with the requested
// monitoring setup.
func newInstance(cfg Config, dir, name string, withMonitor, withDaemon bool) (*instance, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	inst := &instance{name: name}
	if withMonitor {
		// The workload ring matches the prototype's data resolution:
		// up to 1000 statements per daemon interval; beyond that the
		// ring wraps and "the daemon always writes the same amount of
		// rows per interval, no matter how high the throughput".
		inst.mon = monitor.New(monitor.Config{WorkloadCapacity: 1000})
	}
	db, err := engine.Open(engine.Config{
		Dir:       filepath.Join(dir, "db"),
		PoolPages: cfg.PoolPages,
		Monitor:   inst.mon,
	})
	if err != nil {
		return nil, err
	}
	inst.db = db
	if withMonitor {
		if err := ima.Register(ima.Sources{DB: db, Mon: inst.mon}); err != nil {
			db.Close()
			return nil, err
		}
	}
	if err := nref.NewGenerator(cfg.Scale, 42).Load(db); err != nil {
		db.Close()
		return nil, err
	}
	if withDaemon {
		wdb, err := engine.Open(engine.Config{
			Dir:       filepath.Join(dir, "workloaddb"),
			PoolPages: 512,
		})
		if err != nil {
			db.Close()
			return nil, err
		}
		inst.wdb = wdb
		d, err := daemon.New(daemon.Config{
			Source:   db,
			Mon:      inst.mon,
			Target:   wdb,
			Interval: cfg.DaemonPeriod,
		})
		if err != nil {
			db.Close()
			wdb.Close()
			return nil, err
		}
		inst.daemon = d
		inst.stop = make(chan struct{})
		inst.done = make(chan struct{})
		go func() {
			defer close(inst.done)
			ticker := time.NewTicker(cfg.DaemonPeriod)
			defer ticker.Stop()
			for {
				select {
				case <-inst.stop:
					return
				case <-ticker.C:
					if err := d.Poll(); err != nil {
						return
					}
				}
			}
		}()
	}
	return inst, nil
}

func (i *instance) close() {
	if i.stop != nil {
		close(i.stop)
		<-i.done
	}
	if i.db != nil {
		i.db.Close()
	}
	if i.wdb != nil {
		i.wdb.Close()
	}
}

// runStatements executes the statements on one session and returns the
// elapsed wall time.
func runStatements(db *engine.DB, stmts []string) (time.Duration, error) {
	s := db.NewSession()
	defer s.Close()
	start := time.Now()
	for _, q := range stmts {
		if _, err := s.Exec(q); err != nil {
			return 0, fmt.Errorf("%w (statement: %.80s)", err, q)
		}
	}
	return time.Since(start), nil
}

// generate builds the three workloads of §V-A at the configured scale.
func generate(cfg Config) (complex50, joins, selects []string) {
	complex50 = nref.Complex50(cfg.Scale)[:cfg.ComplexN]
	joins = make([]string, cfg.JoinsN)
	for i := range joins {
		joins[i] = nref.SimpleJoinStatement(i, cfg.Scale)
	}
	selects = make([]string, cfg.SelectsN)
	for i := range selects {
		selects[i] = nref.PointSelectStatement(i, cfg.Scale)
	}
	return
}
