// Command bench is the repository's benchmark: four NREF workloads
// driven through the system's public functions only, each in its own
// process, reporting noise-bounded end-to-end metrics (tracing off) or
// per-layer metrics and a span file (tracing on). README.md explains
// the workloads, the metrics and the noise rules; BENCHMARK.json is the
// contract.
//
//	bench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	bench -all [-seed N] [-seconds S] [-out FILE]
//	bench -selfcheck [-runs 5]
//	bench -compare BASE NEW
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

const defaultSeconds = 20

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload: point_select, complex_join, mixed_rw or tuning_loop")
		seed      = flag.Int64("seed", 1, "all data, keys and parameters derive from it")
		seconds   = flag.Float64("seconds", defaultSeconds, "length of the timed phase")
		trace     = flag.Int("trace", 0, "1: traced run, per-layer metrics and bench/out/trace-<workload>.json")
		out       = flag.String("out", "", "append the run's record to this file")
		all       = flag.Bool("all", false, "run every workload untraced and traced, one process each")
		selfcheck = flag.Bool("selfcheck", false, "run the suite as two interleaved sets and hold them to the bounds")
		runs      = flag.Int("runs", 5, "runs per set and workload for -selfcheck")
		compare   = flag.Bool("compare", false, "compare two result files: -compare BASE NEW")
		size      = flag.String("size", "full", "full, or smoke (scale 500, one short quad) for tests")
		tmp       = flag.String("tmp", ".bench_build/tmp", "private run directories are created here")
		outDir    = flag.String("outdir", "bench/out", "trace files are written here")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare BASE NEW")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *selfcheck:
		err = runSelfcheck(*runs, *seconds, *size, *outDir)
	case *all:
		err = runAll(*seed, *seconds, *size, *out)
	case *workload != "":
		err = runOne(runConfig{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
			smoke: *size == "smoke", tmpBase: *tmp, outDir: *outDir,
		}, *out)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs a workload in this process, prints every metric by name
// and then, as the last line, the result object the contract asks for.
func runOne(cfg runConfig, out string) error {
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	printMetrics(res)
	if out != "" {
		if err := appendResult(out, res); err != nil {
			return err
		}
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for _, m := range res.Metrics {
		last.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed; first: %s", res.Workload, res.Failed, res.Attempted, res.FirstError)
	}
	return nil
}

func printMetrics(res *results) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Printf("# %s seed=%d %s: attempted=%d failed=%d correct=%v\n",
		res.Workload, res.Seed, mode, res.Attempted, res.Failed, res.Correct)
	for _, m := range res.Metrics {
		fmt.Printf("%-42s %14.6g %-9s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
}

func appendResult(path string, res *results) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reexec runs one workload in a fresh process of this binary, so no
// run inherits another's heap, page cache residency of its own temp
// files, or goroutines.
func reexec(workload string, seed int64, seconds float64, trace bool, size, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t, "-size", size}
	if out != "" {
		args = append(args, "-out", out)
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	return cmd.Run()
}

func runAll(seed int64, seconds float64, size, out string) error {
	var firstErr error
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			if err := reexec(sp.name, seed, seconds, trace, size, out); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s (trace=%v): %w", sp.name, trace, err)
			}
		}
	}
	return firstErr
}
