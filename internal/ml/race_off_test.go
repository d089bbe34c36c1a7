//go:build !race

package ml

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
