//go:build race

package chunk

// raceEnabled reports whether the race detector is active; it allocates on
// its own account, so allocation audits are skipped under -race.
const raceEnabled = true
