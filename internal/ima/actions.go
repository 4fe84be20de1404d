package ima

// ActionRow is one audit record of the autonomous tuning loop: a state
// transition of an applied (or rolled back) tuning action. Rows are
// append-only — every transition of an action produces a new row with
// a higher Seq — so ima_actions and the persisted ws_actions are a
// complete history of what the apply state machine did and why.
type ActionRow struct {
	Seq      int64   // monotone across all rows; the daemon's watermark
	ActionID int64   // groups the rows of one action
	Kind     string  // recommendation kind (create-index, enlarge-buffer-pool, ...)
	Target   string  // table or subsystem the action touches
	SQL      string  // statement executed (or description for non-SQL actions)
	State    string  // proposed | applying | canary | accepted | rolled-back | failed
	Baseline int64   // canary baseline tail latency, microseconds (0 before canary)
	Observed int64   // canary observed tail latency, microseconds
	DeltaPct float64 // (observed-baseline)/baseline * 100
	Samples  int64   // executions observed in the canary window
	AtUs     int64   // transition timestamp, unix microseconds
	Detail   string  // decision reason or error text
}
