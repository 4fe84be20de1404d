package experiments

import (
	"strings"
	"testing"
)

// smallConfig keeps experiment tests fast; the real proportions run in
// the benchmarks and cmd/benchrunner.
func smallConfig(t *testing.T) Config {
	return Config{
		Dir:      t.TempDir(),
		Scale:    1200,
		ComplexN: 10,
		JoinsN:   300,
		SelectsN: 2000,
	}
}

func TestFig4ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunFig4(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	for _, want := range []string{"Original", "Monitoring", "Daemon", "relative"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Shape: monitoring is negligible on the complex test and costs
	// something measurable on the point selects. Both are asserted on
	// the sensors' own clock — sensor time over the wall time of the same
	// run — not on the ratio of two separately timed runs on two
	// instances, which is noise on a shared host.
	if res.Shares["50"] <= 0 || res.Shares["50"] > 0.02 {
		t.Errorf("complex test: sensors took %.3f%% of the wall time, want (0, 2%%]", res.Shares["50"]*100)
	}
	if res.MonitorShare <= res.Shares["50"] {
		t.Errorf("sensor share of the point selects (%.3f%%) not above that of the complex test (%.3f%%)",
			res.MonitorShare*100, res.Shares["50"]*100)
	}
}

func TestFig5ShareGrowsWithWarmCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunFig5(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Complex) != 5 || len(res.Simple) < 4 {
		t.Fatalf("samples: %d complex, %d simple", len(res.Complex), len(res.Simple))
	}
	// Complex statements: monitoring share is negligible.
	for _, s := range res.Complex {
		if s.Share > 0.10 {
			t.Errorf("complex query %d: monitor share %.1f%%, want negligible", s.Position, s.Share*100)
		}
	}
	// Simple statements: the share at position 1000 (the median of a
	// window of warm statements, sensor time over wall time statement by
	// statement) must exceed the share of the first, cold statement.
	first := res.Simple[0]
	var late Fig5Sample
	for _, s := range res.Simple {
		if s.Position == 1000 {
			late = s
		}
	}
	if late.Position == 0 {
		t.Fatal("no probe at position 1000")
	}
	if raceEnabled {
		t.Log("race detector active: skipping timing-ratio assertions")
	} else {
		if late.Share <= first.Share {
			t.Errorf("share did not grow: first %.2f%%, at 1000 %.2f%%", first.Share*100, late.Share*100)
		}
		if late.TotalUs >= first.TotalUs {
			t.Errorf("warm statement (%.0fµs) not faster than cold (%.0fµs)", late.TotalUs, first.TotalUs)
		}
	}
	if !strings.Contains(res.String(), "stmt#") {
		t.Error("rendering broken")
	}
}

func TestFig7AnalyzerMatchesManualShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := smallConfig(t)
	cfg.ComplexN = 20
	res, err := RunFig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	unopt, manual, auto := res.Rows[0], res.Rows[1], res.Rows[2]
	// Shape: both tuned variants beat unoptimised.
	if manual.RuntimeSec >= unopt.RuntimeSec {
		t.Errorf("manual (%.3fs) not faster than unoptimised (%.3fs)", manual.RuntimeSec, unopt.RuntimeSec)
	}
	if auto.RuntimeSec >= unopt.RuntimeSec {
		t.Errorf("analyser (%.3fs) not faster than unoptimised (%.3fs)", auto.RuntimeSec, unopt.RuntimeSec)
	}
	// Shape: the analyzer's index set is smaller, and so is its DB.
	if auto.SecondaryIdx >= manual.SecondaryIdx {
		t.Errorf("analyser set (%d) not smaller than reference (%d)", auto.SecondaryIdx, manual.SecondaryIdx)
	}
	if auto.DBBytes >= manual.DBBytes {
		t.Errorf("analyser DB (%d) not smaller than manual (%d)", auto.DBBytes, manual.DBBytes)
	}
	if unopt.DBBytes >= manual.DBBytes {
		t.Errorf("manual tuning should grow the DB: %d vs %d", manual.DBBytes, unopt.DBBytes)
	}
	if res.ModifyRecs == 0 {
		t.Error("no MODIFY recommendations")
	}
	if res.IndexRecs == 0 {
		t.Error("no index recommendations")
	}
	if !strings.Contains(res.String(), "Cost Diagram") {
		t.Error("figure 6 chart missing from rendering")
	}
}

func TestFig8ProducesWaits(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := smallConfig(t)
	cfg.Scale = 600
	res, err := RunFig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples < 3 {
		t.Errorf("too few statistics samples: %d", res.Samples)
	}
	if res.LockWaits == 0 {
		t.Error("no lock waits under a contending workload")
	}
	if !strings.Contains(res.Diagram, "Locks in use") {
		t.Errorf("diagram:\n%s", res.Diagram)
	}
}

func TestGrowthAndSensorCost(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g, err := RunGrowth(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if g.MeasuredBytesPerRow <= 0 {
		t.Errorf("bytes per row: %v", g.MeasuredBytesPerRow)
	}
	if !strings.Contains(g.String(), "7-day cap") {
		t.Error("growth rendering broken")
	}
	sc, err := RunSensorCost(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if sc.PerStatementUs <= 0 || sc.PerStatementUs > 1000 {
		t.Errorf("sensor cost per statement: %vµs", sc.PerStatementUs)
	}
}
