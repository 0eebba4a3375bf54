//go:build race

package dem

const raceEnabled = true
