//go:build race

package dynshap

// The race detector instruments every memory access, so tests that gate
// wall-clock or heap figures skip themselves under it.
func init() { raceEnabled = true }
