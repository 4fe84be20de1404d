package experiments

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/nref"
)

// Fig5Sample is one probe: its position in the sequence, total
// execution time and the share spent in monitoring sensors. A probe of
// the point-select sequence past its first statements is the median —
// by share — of fig5Window consecutive statements, so that one
// descheduled statement does not become the figure.
type Fig5Sample struct {
	Position int
	TotalUs  float64
	MonUs    float64
	Share    float64
}

// Fig5Result is the Share of Monitoring experiment.
type Fig5Result struct {
	// Complex samples the first five queries of the 50 test; Simple
	// samples the point-select sequence at exponentially spaced
	// positions (1, 2, 10, 100, 1000, ...), reproducing both panels of
	// Figure 5.
	Complex []Fig5Sample
	Simple  []Fig5Sample
}

// RunFig5 measures the share of monitoring per statement. The first
// statement pays cold caches (catalog, buffer pool, plan compile);
// once everything is warm the fixed monitoring cost dominates very
// simple statements — the paper saw the share grow from a fraction of
// a percent to 90–98%.
func RunFig5(cfg Config) (*Fig5Result, error) {
	cfg.fill()
	inst, err := newInstance(cfg, filepath.Join(cfg.Dir, "fig5"), "Monitoring", true, false)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	res := &Fig5Result{}
	s := inst.db.NewSession()
	defer s.Close()

	probe := func(sql string, pos int) (Fig5Sample, error) {
		mon0 := inst.mon.TotalMonitorTime()
		t0 := time.Now()
		if _, err := s.Exec(sql); err != nil {
			return Fig5Sample{}, err
		}
		total := time.Since(t0)
		monD := inst.mon.TotalMonitorTime() - mon0
		return Fig5Sample{
			Position: pos,
			TotalUs:  float64(total) / 1e3,
			MonUs:    float64(monD) / 1e3,
			Share:    float64(monD) / float64(total),
		}, nil
	}

	// Panel 1: the first five complex queries.
	for i, q := range nref.Complex50(cfg.Scale)[:5] {
		sample, err := probe(q, i+1)
		if err != nil {
			return nil, err
		}
		res.Complex = append(res.Complex, sample)
	}

	// Panel 2: the point-select sequence with probes at 1, 2, 10, 100,
	// 1000, 10000, ... up to the configured count. The first two are
	// single statements (there is one cold statement); the later ones
	// are windows.
	probes := map[int]bool{1: true, 2: true, 10: true, 100: true, 1000: true, 10000: true, 100000: true}
	n := cfg.SelectsN
	for i := 1; i <= n; i++ {
		if !probes[i] {
			if _, err := s.Exec(nref.PointSelectStatement(i-1, cfg.Scale)); err != nil {
				return nil, err
			}
			continue
		}
		width := 1
		if i >= 10 {
			width = min(fig5Window, n-i+1)
		}
		window := make([]Fig5Sample, width)
		for w := range window {
			if window[w], err = probe(nref.PointSelectStatement(i+w-1, cfg.Scale), i); err != nil {
				return nil, err
			}
		}
		sort.Slice(window, func(a, b int) bool { return window[a].Share < window[b].Share })
		res.Simple = append(res.Simple, window[width/2])
		i += width - 1
	}
	return res, nil
}

// fig5Window is the number of consecutive statements behind one probe
// of the warm point-select sequence.
const fig5Window = 9

// String renders both panels.
func (r *Fig5Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 5 — Share of Monitoring in total statement time\n\n")
	b.WriteString("first five queries of the 50 test:\n")
	fmt.Fprintf(&b, "%8s %14s %12s %8s\n", "query", "total µs", "monitor µs", "share")
	for _, s := range r.Complex {
		fmt.Fprintf(&b, "%8d %14.1f %12.2f %7.2f%%\n", s.Position, s.TotalUs, s.MonUs, s.Share*100)
	}
	b.WriteString("\npoint-select sequence (the 1m test):\n")
	fmt.Fprintf(&b, "%8s %14s %12s %8s\n", "stmt#", "total µs", "monitor µs", "share")
	for _, s := range r.Simple {
		fmt.Fprintf(&b, "%8d %14.1f %12.2f %7.2f%%\n", s.Position, s.TotalUs, s.MonUs, s.Share*100)
	}
	return b.String()
}
