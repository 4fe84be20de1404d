package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// readResults loads the untraced run records of a result file (one
// JSON object per line, as -out writes them), grouped by workload.
func readResults(path string) (map[string][]*results, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*results{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r results
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

func valuesOf(runs []*results, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if x, ok := r.value(name); ok {
			v = append(v, x)
		}
	}
	return v
}

// worsening returns by what share of base the value new is worse
// (negative: better), given the metric's direction.
func worsening(d *metricDef, base, new float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (base - new) / base
	}
	return (new - base) / base
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians, the ratio with its base, the base's own run-to-run spread
// (interquartile range over median), the bound and a verdict.
//
//	unresolved  the base's spread is wider than the bound, so the
//	            bound cannot be checked either way
//	worse       new's median is worse than base's by more than the bound
//	better      new's median is better by more than the base's spread
//	within      anything else
func compareFiles(w io.Writer, basePath, newPath string) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-23s %12s %12s %16s %7s %6s  %s\n",
		"workload", "metric", "base", "new", "new/base", "spread", "bound", "verdict")
	worse := 0
	for _, sp := range specs {
		for i := range endToEnd {
			d := &endToEnd[i]
			bv, nv := valuesOf(base[sp.name], d.Name), valuesOf(cur[sp.name], d.Name)
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			bm, nm, sprd := median(bv), median(nv), spread(bv)
			delta := worsening(d, bm, nm)
			verdict := "within"
			switch {
			case sprd > d.Bound:
				verdict = "unresolved"
			case delta > d.Bound:
				verdict = "worse"
				worse++
			case -delta > sprd && len(bv) > 1:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-13s %-23s %12.6g %12.6g %8.4f of base %7.4f %6.2f  %s\n",
				sp.name, d.Name, bm, nm, nm/bm, sprd, d.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}

// runSelfcheck answers "does this benchmark repeat?": it runs the
// whole suite as two interleaved sets A and B of the same build, each
// run with its own seed, and fails if, for any workload and end-to-end
// metric, the sets' medians differ by more than the bound or either
// set's spread exceeds it.
func runSelfcheck(runs int, seconds float64, size, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	files := [2]string{filepath.Join(outDir, "selfcheck-a.jsonl"), filepath.Join(outDir, "selfcheck-b.jsonl")}
	for _, f := range files {
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	seed := int64(1)
	for i := 0; i < runs; i++ {
		for _, sp := range specs {
			for _, f := range files {
				if err := reexec(sp.name, seed, seconds, false, size, f); err != nil {
					return fmt.Errorf("%s seed %d: %w", sp.name, seed, err)
				}
				seed++
			}
		}
	}
	a, err := readResults(files[0])
	if err != nil {
		return err
	}
	b, err := readResults(files[1])
	if err != nil {
		return err
	}
	fmt.Printf("\n%-13s %-23s %12s %12s %9s %9s %9s %6s  %s\n",
		"workload", "metric", "median A", "median B", "deviation", "spread A", "spread B", "bound", "")
	bad := 0
	for _, sp := range specs {
		for i := range endToEnd {
			d := &endToEnd[i]
			av, bv := valuesOf(a[sp.name], d.Name), valuesOf(b[sp.name], d.Name)
			am, bm := median(av), median(bv)
			dev := worsening(d, am, bm)
			if dev < 0 {
				dev = -dev
			}
			sa, sb := spread(av), spread(bv)
			verdict := "ok"
			// The acceptance rule exempts setup_s from the spread test
			// but not from the median test.
			if dev > d.Bound || (d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound)) {
				verdict = "EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("%-13s %-23s %12.6g %12.6g %9.4f %9.4f %9.4f %6.2f  %s\n",
				sp.name, d.Name, am, bm, dev, sa, sb, d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload/metric pairs do not repeat within their bound", bad)
	}
	return nil
}
