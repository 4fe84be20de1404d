package analyzer

import (
	"fmt"
	"strings"
)

// String renders the full analyzer report: the statement summary, the
// recommendations grouped by kind with reasons, the estimated cost
// effect of the index set, and the Figure 6 cost diagram. This is the
// "results and recommendations presented in textual and graphical
// form" output of §IV-D.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Analyzer report: %d statements analyzed, %d with significantly diverging cost estimates\n",
		len(r.Statements), r.DivergentCount)

	if len(r.Recommendations) == 0 {
		b.WriteString("\nno recommendations — the physical design fits the observed workload\n")
	} else {
		order := []Kind{KindModify, KindIndex, KindStatistics, KindBufferPool, KindLockWait, KindMvccSnapshot, KindMvccConflict}
		titles := map[Kind]string{
			KindModify:       "storage structure changes",
			KindIndex:        "secondary indexes",
			KindStatistics:   "statistics collection",
			KindBufferPool:   "configuration changes (manual)",
			KindLockWait:     "lock-contention advisories (wait-state analysis)",
			KindMvccSnapshot: "snapshot-age advisories (MVCC health)",
			KindMvccConflict: "write-conflict advisories (MVCC health)",
		}
		for _, k := range order {
			var recs []Recommendation
			for _, rec := range r.Recommendations {
				if rec.Kind == k {
					recs = append(recs, rec)
				}
			}
			if len(recs) == 0 {
				continue
			}
			fmt.Fprintf(&b, "\n%s (%d):\n", titles[k], len(recs))
			for _, rec := range recs {
				fmt.Fprintf(&b, "  %s\n    -- %s\n", rec.SQL, rec.Reason)
			}
		}
	}

	if r.BaselineEstCost > 0 {
		fmt.Fprintf(&b, "\nestimated workload cost: %.0f now, %.0f with the recommended indexes (%.0f%% saved)\n",
			r.BaselineEstCost, r.WhatIfEstCost,
			(1-r.WhatIfEstCost/(r.BaselineEstCost+1e-9))*100)
	}
	if n := len(r.Statements); n > 0 {
		b.WriteString("\nmost expensive statements:\n")
		max := 5
		if n < max {
			max = n
		}
		for i := 0; i < max; i++ {
			sc := r.Statements[i]
			flag := " "
			if sc.Diverges {
				flag = "!"
			}
			fmt.Fprintf(&b, " %s x%-4d act=%8.1f est=%8.1f  %.60s\n",
				flag, sc.Executions, sc.ActualCost, sc.EstCost, oneLine(sc.Text))
		}
		b.WriteString("  ('!' = estimated and actual costs diverge)\n")
	}
	if r.CostDiagram != "" {
		b.WriteByte('\n')
		b.WriteString(r.CostDiagram)
	}
	return b.String()
}

func oneLine(s string) string {
	return strings.Join(strings.Fields(s), " ")
}
