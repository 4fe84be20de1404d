package engine

// SampleEveryStatement has every session sample each statement for
// stage attribution, for the package's external tests; the returned
// func restores the period. Sessions opened before the call keep
// counting down to their next sample first.
func SampleEveryStatement() (restore func()) {
	samplePeriod = 1
	return func() { samplePeriod = stagePeriod }
}
