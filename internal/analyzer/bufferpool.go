package analyzer

import (
	"fmt"

	"repro/internal/workloaddb"
)

// ruleBufferPool recommends a larger buffer pool when the collected
// ws_statistics series shows poll intervals whose cache hit ratio fell
// below minHitRatio while the pool was actively evicting — the classic
// "working set exceeds the cache" signature. A low hit ratio with zero
// evictions is a cold cache (first touch of the data), not pressure,
// so it does not fire the rule.
//
// The recommendation is report-level: resizing the pool needs a restart
// (engine.Config.PoolPages), so Apply never executes it — matching the
// paper's stance that the analyzer recommends and the DBA implements.
func (a *Analyzer) ruleBufferPool(rep *Report) error {
	s := a.cfg.WorkloadDB.NewSession()
	defer s.Close()
	res, err := s.Exec(`SELECT ts_us, cache_hits, cache_misses, cache_evictions, pin_waits
		FROM ` + workloaddb.Statistics + ` ORDER BY ts_us`)
	if err != nil {
		// Workload databases collected before the buffer-manager columns
		// existed cannot be judged; skip the rule rather than fail the
		// whole analysis.
		return nil
	}
	if len(res.Rows) < 2 {
		return nil
	}

	var (
		badIntervals  int
		goodIntervals int
		worstRatio    = 1.0
		missVolume    int64
		evictions     int64
		pinWaits      int64
	)
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		dHits := cur[1].I - prev[1].I
		dMisses := cur[2].I - prev[2].I
		dEvict := cur[3].I - prev[3].I
		dWaits := cur[4].I - prev[4].I
		requests := dHits + dMisses
		if requests < minCacheRequests {
			continue // too quiet to judge
		}
		ratio := float64(dHits) / float64(requests)
		if ratio < minHitRatio && dEvict > 0 {
			badIntervals++
			missVolume += dMisses
			evictions += dEvict
			pinWaits += dWaits
			if ratio < worstRatio {
				worstRatio = ratio
			}
		} else {
			goodIntervals++
		}
	}
	if badIntervals == 0 {
		return nil
	}

	reason := fmt.Sprintf(
		"%d poll interval(s) ran below the %.0f%% cache hit-ratio target (worst %.1f%%) while evicting %d frame(s): the working set does not fit the buffer pool",
		badIntervals, minHitRatio*100, worstRatio*100, evictions)
	if pinWaits > 0 {
		reason += fmt.Sprintf("; %d pin wait(s) show sessions stalling for frames", pinWaits)
	}
	rep.Recommendations = append(rep.Recommendations, Recommendation{
		Kind:   KindBufferPool,
		SQL:    "-- restart with a larger buffer pool (engine.Config.PoolPages)",
		Reason: reason,
		Score:  float64(missVolume),
	})
	return nil
}
