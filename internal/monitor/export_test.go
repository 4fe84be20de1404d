package monitor

// NewSharded builds a monitor whose counters are striped shards ways,
// for the package's external tests.
func NewSharded(capacity, shards int) *Monitor { return newMonitor(capacity, shards) }
