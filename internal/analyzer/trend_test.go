package analyzer

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sqltypes"
	"repro/internal/workloaddb"
)

func rowsFor(points [][2]float64) []sqltypes.Row {
	out := make([]sqltypes.Row, len(points))
	for i, p := range points {
		out[i] = sqltypes.Row{
			sqltypes.NewInt(int64(p[0] * 3.6e9)), // hours -> micros
			sqltypes.NewFloat(p[1]),
		}
	}
	return out
}

func TestFitTrendLinear(t *testing.T) {
	// y = 10 + 5x, exact.
	tr := fitTrend("m", rowsFor([][2]float64{{0, 10}, {1, 15}, {2, 20}, {3, 25}}))
	if tr.PerHour < 4.99 || tr.PerHour > 5.01 {
		t.Errorf("slope = %v", tr.PerHour)
	}
	if tr.R2 < 0.999 {
		t.Errorf("R2 = %v", tr.R2)
	}
	if tr.Current != 25 {
		t.Errorf("current = %v", tr.Current)
	}
	when, ok := tr.PredictCrossing(50)
	if !ok {
		t.Fatal("no crossing predicted")
	}
	want := tr.Last.Add(5 * time.Hour) // (50-25)/5
	if d := when.Sub(want); d < -time.Minute || d > time.Minute {
		t.Errorf("crossing at %v, want %v", when, want)
	}
}

func TestFitTrendFlatAndNoisy(t *testing.T) {
	flat := fitTrend("m", rowsFor([][2]float64{{0, 7}, {1, 7}, {2, 7}}))
	if _, ok := flat.PredictCrossing(10); ok {
		t.Error("flat series predicted a crossing")
	}
	// Already above threshold in a decreasing series: no future crossing.
	down := fitTrend("m", rowsFor([][2]float64{{0, 30}, {1, 20}, {2, 10}}))
	if _, ok := down.PredictCrossing(40); ok {
		t.Error("decreasing series predicted an upward crossing")
	}
	// Pure noise: R2 too low for predictions.
	noise := fitTrend("m", rowsFor([][2]float64{{0, 0}, {1, 100}, {2, 3}, {3, 97}, {4, 1}}))
	if _, ok := noise.PredictCrossing(1000); ok && noise.R2 < 0.5 {
		t.Errorf("noisy series (R2=%v) predicted a crossing", noise.R2)
	}
}

func TestTrendsOverWorkloadDB(t *testing.T) {
	f := newFixture(t, 300)
	// Insert a synthetic, strongly increasing db_bytes series after
	// the fixture's real daemon sample so the series stays monotonic.
	s := f.wdb.NewSession()
	base := time.Now().Add(time.Hour)
	for i := 0; i < 6; i++ {
		ts := base.Add(time.Duration(i) * 30 * time.Minute).UnixMicro()
		if _, err := s.Exec(fmt.Sprintf(
			"INSERT INTO %s VALUES (%d, 1, 1, %d, 0, 0, 0, 0, 0, 0, 0, %d, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)",
			workloaddb.Statistics, ts, 100*(i+1), 1000000*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	trends, err := f.an.Trends()
	if err != nil {
		t.Fatal(err)
	}
	var dbBytes *Trend
	for i := range trends {
		if trends[i].Metric == "db_bytes" {
			dbBytes = &trends[i]
		}
	}
	if dbBytes == nil {
		t.Fatal("no db_bytes trend")
	}
	if dbBytes.PerHour < 1e6 {
		t.Errorf("db_bytes slope = %v", dbBytes.PerHour)
	}
	when, ok := dbBytes.PredictCrossing(20e6)
	if !ok {
		t.Fatal("no crossing predicted for a growing series")
	}
	if when.Before(dbBytes.Last) {
		t.Errorf("crossing in the past: %v", when)
	}
	if dbBytes.String() == "" {
		t.Error("empty rendering")
	}
}
