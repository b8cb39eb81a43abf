//go:build race

package sim

// raceEnabled reports that the race detector (and its ~6x slowdown) is
// compiled in; the steady-state differential shrinks its grid under it.
const raceEnabled = true
