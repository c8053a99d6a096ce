//go:build race

package memctrl

// raceEnabled reports whether the race detector is compiled in; tests too
// slow under it skip themselves.
const raceEnabled = true
