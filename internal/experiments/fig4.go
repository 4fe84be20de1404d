package experiments

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/charts"
)

// Fig4Result is the System Performance experiment: wall time of the
// three workloads on the three setups, reported relative to Original.
type Fig4Result struct {
	Tests    []string                      // "50", "50k", "1m" (scaled)
	Setups   []string                      // Original, Monitoring, Daemon
	Seconds  map[string]map[string]float64 // setup -> test -> wall seconds
	Relative map[string]map[string]float64 // setup -> test -> vs Original
	// Shares is, per test, the fraction of the Monitoring setup's wall
	// time spent inside the sensors — both read off the same run, the
	// sensors' share on their own clock. MonitorShare is Shares["1m"], the
	// point-select test (the text's 11% discussion).
	Shares       map[string]float64
	MonitorShare float64
}

// RunFig4 reproduces Figure 4: three Ingres instances (Original,
// Monitoring, Daemon), three workloads each, all runs repeated on the
// same loaded data.
func RunFig4(cfg Config) (*Fig4Result, error) {
	cfg.fill()
	complex50, joins, selects := generate(cfg)
	res := &Fig4Result{
		Tests:    []string{"50", "50k", "1m"},
		Setups:   []string{"Original", "Monitoring", "Daemon"},
		Seconds:  map[string]map[string]float64{},
		Relative: map[string]map[string]float64{},
		Shares:   map[string]float64{},
	}
	type setup struct {
		name                    string
		withMonitor, withDaemon bool
	}
	for _, st := range []setup{
		{"Original", false, false},
		{"Monitoring", true, false},
		{"Daemon", true, true},
	} {
		inst, err := newInstance(cfg, filepath.Join(cfg.Dir, "fig4_"+strings.ToLower(st.name)), st.name, st.withMonitor, st.withDaemon)
		if err != nil {
			return nil, err
		}
		res.Seconds[st.name] = map[string]float64{}

		// Warm up: run a slice of the complex set so caches and plans
		// are comparable across setups, then, as in the paper, repeat
		// each test three times "to minimize local anomalies" — we
		// keep the fastest run.
		if _, err := runStatements(inst.db, complex50[:5]); err != nil {
			inst.close()
			return nil, err
		}
		const repeats = 5
		for ti, stmts := range [][]string{complex50, joins, selects} {
			best := time.Duration(0)
			var monBest time.Duration
			for rep := 0; rep < repeats; rep++ {
				var mon0 time.Duration
				if inst.mon != nil {
					mon0 = inst.mon.TotalMonitorTime()
				}
				d, err := runStatements(inst.db, stmts)
				if err != nil {
					inst.close()
					return nil, err
				}
				if best == 0 || d < best {
					best = d
					if inst.mon != nil {
						monBest = inst.mon.TotalMonitorTime() - mon0
					}
				}
			}
			res.Seconds[st.name][res.Tests[ti]] = best.Seconds()
			if st.name == "Monitoring" {
				res.Shares[res.Tests[ti]] = float64(monBest) / float64(best)
			}
		}
		inst.close()
	}
	res.MonitorShare = res.Shares["1m"]
	for _, s := range res.Setups {
		res.Relative[s] = map[string]float64{}
		for _, t := range res.Tests {
			res.Relative[s][t] = res.Seconds[s][t] / res.Seconds["Original"][t]
		}
	}
	return res, nil
}

// String renders the figure as the paper does: relative runtimes per
// test and setup.
func (r *Fig4Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 4 — System Performance (relative to Original)\n")
	fmt.Fprintf(&b, "%-12s", "setup")
	for _, t := range r.Tests {
		fmt.Fprintf(&b, "%12s", t)
	}
	b.WriteByte('\n')
	for _, s := range r.Setups {
		fmt.Fprintf(&b, "%-12s", s)
		for _, t := range r.Tests {
			fmt.Fprintf(&b, "%11.1f%%", r.Relative[s][t]*100)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\nabsolute seconds:\n")
	for _, s := range r.Setups {
		fmt.Fprintf(&b, "%-12s", s)
		for _, t := range r.Tests {
			fmt.Fprintf(&b, "%11.3fs", r.Seconds[s][t])
		}
		b.WriteByte('\n')
	}
	b.WriteString("\nsensor time / wall time (Monitoring setup):")
	for _, t := range r.Tests {
		fmt.Fprintf(&b, "  %s %.2f%%", t, r.Shares[t]*100)
	}
	b.WriteByte('\n')

	var groups []charts.BarGroup
	for _, t := range r.Tests {
		g := charts.BarGroup{Label: t}
		for _, s := range r.Setups {
			g.Values = append(g.Values, r.Relative[s][t]*100)
		}
		groups = append(groups, g)
	}
	b.WriteByte('\n')
	b.WriteString(charts.BarChart("relative runtime (%)", r.Setups, groups, 48))
	return b.String()
}
