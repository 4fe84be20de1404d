// Command benchrunner regenerates the paper's evaluation: every figure
// of §V plus the capacity and sensor-cost numbers from the text.
//
// Usage:
//
//	benchrunner [-fig 4|5|6|7|8] [-growth] [-sensorcost] [-all]
//	            [-scale N] [-complex N] [-joins N] [-selects N]
//	            [-dir path]
//
// Figure 6 (the cost diagram) is produced by the same analyzer run as
// Figure 7 and is printed with it.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		fig        = flag.Int("fig", 0, "figure to reproduce (4, 5, 6, 7 or 8)")
		growth     = flag.Bool("growth", false, "run the workload-DB growth experiment")
		sensorcost = flag.Bool("sensorcost", false, "run the sensor-cost experiment")
		all        = flag.Bool("all", false, "run everything")
		scale      = flag.Int("scale", 8000, "NREF scale (number of proteins)")
		complexN   = flag.Int("complex", 50, "complex queries in the 50 test")
		joinsN     = flag.Int("joins", 5000, "statements in the 50k test")
		selectsN   = flag.Int("selects", 50000, "statements in the 1m test")
		dir        = flag.String("dir", "", "working directory (default: a temp dir)")
	)
	flag.Parse()

	workDir := *dir
	if workDir == "" {
		var err error
		workDir, err = os.MkdirTemp("", "repro-bench-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(workDir)
	}
	cfg := experiments.Config{
		Dir:      workDir,
		Scale:    *scale,
		ComplexN: *complexN,
		JoinsN:   *joinsN,
		SelectsN: *selectsN,
	}

	runAll := *all || (*fig == 0 && !*growth && !*sensorcost)
	run := func(name string, f func() (fmt.Stringer, error)) {
		fmt.Printf("=== %s ===\n", name)
		start := time.Now()
		res, err := f()
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.String())
		fmt.Printf("(experiment wall time: %.1fs)\n\n", time.Since(start).Seconds())
	}

	if runAll || *fig == 4 {
		run("Figure 4: System Performance", func() (fmt.Stringer, error) {
			return experiments.RunFig4(cfg)
		})
	}
	if runAll || *fig == 5 {
		run("Figure 5: Share of Monitoring", func() (fmt.Stringer, error) {
			return experiments.RunFig5(cfg)
		})
	}
	if runAll || *fig == 6 || *fig == 7 {
		run("Figures 6 & 7: Cost Diagram and Analyser Results", func() (fmt.Stringer, error) {
			return experiments.RunFig7(cfg)
		})
	}
	if runAll || *fig == 8 {
		run("Figure 8: Locks Diagram", func() (fmt.Stringer, error) {
			return experiments.RunFig8(cfg)
		})
	}
	if runAll || *growth {
		run("Workload-DB growth (§V-A)", func() (fmt.Stringer, error) {
			return experiments.RunGrowth(cfg)
		})
	}
	if runAll || *sensorcost {
		run("Sensor cost (§V-A)", func() (fmt.Stringer, error) {
			return experiments.RunSensorCost(cfg)
		})
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchrunner:", err)
	os.Exit(1)
}
