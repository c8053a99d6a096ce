//go:build !race

package memctrl

const raceEnabled = false
