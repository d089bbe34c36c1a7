//go:build !race

package chunk

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
