package main

import (
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"repro/internal/engine"
)

// probes runs, after the timed phase of a traced run, the single
// calls whose cost a per-layer metric reports: each one a span around
// a public function, none of them on the clock of an end-to-end
// metric.
func (b *bench) probes() {
	p := map[string]float64{}
	b.res.probe = p
	timeIt := func(span string, f func() error) float64 {
		id := b.tr.begin(span, 0, 0)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		b.tr.end(id)
		b.attempted.Add(1)
		if err != nil {
			b.fail("%s: %v", span, err)
		}
		return ms(d)
	}
	s := b.sys.Session()
	defer s.Close()
	scan := func(table string) func() error {
		return func() error { _, err := s.Exec("SELECT * FROM " + table); return err }
	}

	p["telemetry.gather_ms"] = timeIt("telemetry.gather", func() error { b.sys.Telemetry.Gather(); return nil })
	p["ima.scan_ms.ima_statements"] = timeIt("ima.scan", scan("ima_statements"))
	p["ima.scan_ms.ima_workload"] = timeIt("ima.scan", scan("ima_workload"))

	sample := b.sampleSelects()
	whatif := timeIt("optimizer.whatif", func() error {
		for _, q := range sample {
			if _, err := s.Explain(q, true); err != nil {
				return err
			}
		}
		return nil
	})
	p["optimizer.whatif_ms_per_stmt"] = whatif / float64(len(sample))
	b.res.probeN = len(sample)
	b.explainAnalyze(s, sample, p)

	// The sensors' cost as a caller sees it: the four calls a monitored
	// statement makes, timed from outside.
	mon := b.sys.Monitor
	const text = "SELECT p.nref_id FROM protein p WHERE p.nref_id = 'NF00000000'"
	t0 := time.Now()
	for i := 0; i < recordLoopN; i++ {
		h := mon.StartStatement(text)
		h.Parsed("SELECT", nrefTables[:1])
		h.Optimized(1, 1, 1, nil, nil, 0)
		h.Finish(1, 0, 1, nil)
	}
	p["monitor.record_ns_per_call"] = float64(time.Since(t0)) / recordLoopN

	p["engine.vacuum_ms"] = timeIt("engine.vacuum", func() error { _, err := b.sys.DB.Vacuum(); return err })
	p["storage.checkpoint_ms"] = timeIt("storage.checkpoint", b.sys.DB.Checkpoint)
	p["engine.open_ms"] = timeIt("engine.open", func() error {
		db, err := engine.Open(engine.Config{Dir: filepath.Join(b.dir, "empty")})
		if err != nil {
			return err
		}
		return db.Close()
	})
	if b.server != nil {
		p["netsql.line_errors"] = float64(b.server.LineErrors())
	}
}

// sampleSelects returns the SELECT statements the what-if and EXPLAIN
// ANALYZE probes run: the complex mix for a pass workload, otherwise
// 200 statements a fresh client stream would send.
func (b *bench) sampleSelects() []string {
	if b.sp.passes {
		return b.mix
	}
	g := newGenerator(b.sp, b.scale, b.cfg.seed, len(b.clients))
	var out []string
	for len(out) < 200 {
		if st := g.next(); !st.kind.isWrite() {
			out = append(out, st.sql)
		}
	}
	return out
}

var (
	opLineRe = regexp.MustCompile(`^\s*(\w+).*\(actual rows=\d+ time=\S+ self=(\S+) nexts=\d+\)$`)
	actualRe = regexp.MustCompile(`^actual: wall=\S+ opt=\S+ rows=(\d+) tuples=(\d+) `)
	opClass  = map[string]string{
		"SeqScan": "scan", "IndexScan": "scan",
		"HashJoin": "join", "LoopJoin": "join", "IndexJoin": "join",
		"Agg": "agg", "Distinct": "agg", "Sort": "sort",
	}
)

// explainAnalyze executes each sample statement under EXPLAIN ANALYZE
// and sums the operators' self times by class and the tuples examined
// against the rows returned.
func (b *bench) explainAnalyze(s *engine.Session, sample []string, p map[string]float64) {
	id := b.tr.begin("executor.explain_analyze", 0, 0)
	defer b.tr.end(id)
	var tuples, returned float64
	for _, q := range sample {
		b.attempted.Add(1)
		res, err := s.Exec("EXPLAIN ANALYZE " + q)
		if err != nil {
			b.fail("explain analyze: %v", err)
			continue
		}
		for _, row := range res.Rows {
			line := row[0].S
			if m := opLineRe.FindStringSubmatch(line); m != nil {
				if d, err := time.ParseDuration(m[2]); err == nil {
					if class := opClass[m[1]]; class != "" {
						p["executor.self_ms."+class] += ms(d)
					}
				}
			} else if m := actualRe.FindStringSubmatch(line); m != nil {
				r, _ := strconv.ParseFloat(m[1], 64)
				t, _ := strconv.ParseFloat(m[2], 64)
				returned += r
				tuples += t
			}
		}
	}
	if returned > 0 {
		p["executor.rows_examined_per_row_returned"] = tuples / returned
	}
}
