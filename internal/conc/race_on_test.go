//go:build race

package conc

// raceEnabled skips the allocation pins: the race detector allocates on
// the paths being counted.
const raceEnabled = true
