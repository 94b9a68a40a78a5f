//go:build race

package core

// raceEnabled skips the allocation pins: the race detector allocates on
// the paths being counted.
const raceEnabled = true
