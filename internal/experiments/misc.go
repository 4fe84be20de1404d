package experiments

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/monitor"
	"repro/internal/nref"
	"repro/internal/workloaddb"
)

// GrowthResult is the workload-DB capacity experiment from §V-A: the
// paper reports ≈28 MB/hour at 33 logged statements per second, capped
// at ≈4.7 GB by the 7-day retention window.
type GrowthResult struct {
	MeasuredBytesPerRow float64
	PaperModel          workloaddb.GrowthModel
	MeasuredModel       workloaddb.GrowthModel
}

// RunGrowth measures the storage cost per logged statement by pushing
// a known number of workload entries through the daemon and dividing
// the workload-DB size delta, then projects growth at the paper's
// logging rate. The paper logs one row per execution; here that is the
// raw tier, so the statement's shape is flagged for the run — unflagged,
// its 2000 executions would reach the workload DB as one summed row.
func RunGrowth(cfg Config) (*GrowthResult, error) {
	cfg.fill()
	cfg.Scale = 500 // tiny: only the workload DB matters here
	inst, err := newInstance(cfg, filepath.Join(cfg.Dir, "growth"), "Monitoring", true, false)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	wdb, err := engine.Open(engine.Config{Dir: filepath.Join(cfg.Dir, "growth", "wdb"), PoolPages: 256})
	if err != nil {
		return nil, err
	}
	defer wdb.Close()
	d, err := daemon.New(daemon.Config{Source: inst.db, Mon: inst.mon, Target: wdb})
	if err != nil {
		return nil, err
	}
	if err := d.Poll(); err != nil { // baseline poll: schema + snapshot tables
		return nil, err
	}
	wdb.Checkpoint()
	before := wdb.SizeBytes()

	const n = 2000
	inst.mon.Flag(nref.PointSelectStatement(0, cfg.Scale), monitor.FlagReasonManual, true, 0)
	s := inst.db.NewSession()
	for i := 0; i < n; i++ {
		if _, err := s.Exec(nref.PointSelectStatement(i, cfg.Scale)); err != nil {
			s.Close()
			return nil, err
		}
	}
	s.Close()
	if err := d.Poll(); err != nil {
		return nil, err
	}
	wdb.Checkpoint()
	perRow := float64(wdb.SizeBytes()-before) / n

	const paperRate = 33 // statements per second at full resolution
	res := &GrowthResult{
		MeasuredBytesPerRow: perRow,
		PaperModel: workloaddb.GrowthModel{
			StatementsPerSecond: paperRate,
			BytesPerWorkloadRow: 28e6 / 3600 / paperRate,
			Retention:           7 * 24 * time.Hour,
		},
		MeasuredModel: workloaddb.GrowthModel{
			StatementsPerSecond: paperRate,
			BytesPerWorkloadRow: perRow,
			Retention:           7 * 24 * time.Hour,
		},
	}
	return res, nil
}

// String renders paper vs measured growth.
func (r *GrowthResult) String() string {
	var b strings.Builder
	b.WriteString("Workload-DB growth (§V-A)\n")
	fmt.Fprintf(&b, "measured bytes per logged statement: %.0f\n", r.MeasuredBytesPerRow)
	fmt.Fprintf(&b, "%-10s %16s %16s\n", "", "MB per hour", "7-day cap GB")
	fmt.Fprintf(&b, "%-10s %15.1f %16.2f\n", "paper",
		r.PaperModel.BytesPerHour()/1e6, r.PaperModel.CapBytes()/1e9)
	fmt.Fprintf(&b, "%-10s %15.1f %16.2f\n", "measured",
		r.MeasuredModel.BytesPerHour()/1e6, r.MeasuredModel.CapBytes()/1e9)
	return b.String()
}

// SensorCostResult measures the per-statement monitoring cost in
// microseconds, the paper's "one or two microseconds per call, 30–70µs
// per statement" discussion.
type SensorCostResult struct {
	PerStatementUs float64
	Statements     int64
}

// RunSensorCost measures the average sensor time per statement over a
// point-select run.
func RunSensorCost(cfg Config) (*SensorCostResult, error) {
	cfg.fill()
	cfg.Scale = 2000
	inst, err := newInstance(cfg, filepath.Join(cfg.Dir, "sensorcost"), "Monitoring", true, false)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	s := inst.db.NewSession()
	defer s.Close()
	const n = 20000
	mon0 := inst.mon.TotalMonitorTime()
	cnt0 := inst.mon.TotalStatements()
	for i := 0; i < n; i++ {
		if _, err := s.Exec(nref.PointSelectStatement(i, cfg.Scale)); err != nil {
			return nil, err
		}
	}
	monD := inst.mon.TotalMonitorTime() - mon0
	cntD := inst.mon.TotalStatements() - cnt0
	return &SensorCostResult{
		PerStatementUs: float64(monD) / 1e3 / float64(cntD),
		Statements:     cntD,
	}, nil
}

// String renders the sensor cost.
func (r *SensorCostResult) String() string {
	return fmt.Sprintf("Monitor sensor cost: %.2fµs per statement over %d statements (paper: 30–70µs per statement on 2006-era hardware)\n",
		r.PerStatementUs, r.Statements)
}
