//go:build !race

package dem

// raceEnabled reports whether the race detector is instrumenting this
// build; allocation-count assertions are skipped under it (the detector
// itself allocates).
const raceEnabled = false
