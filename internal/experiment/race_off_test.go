//go:build !race

package experiment

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
