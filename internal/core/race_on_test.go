//go:build race

package core_test

// raceEnabled reports that the race detector (and its ~6x slowdown) is
// compiled in; the costliest reference runs are skipped under it.
const raceEnabled = true
