//go:build race

package main

// raceEnabled reports that the race detector is compiled in; its
// instrumentation allocates, so the zero-allocation check is skipped.
const raceEnabled = true
