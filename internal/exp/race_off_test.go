//go:build !race

package exp

// raceEnabled reports whether the race detector is instrumenting this
// build; TestAllExperimentsRun runs one worker count under it.
const raceEnabled = false
