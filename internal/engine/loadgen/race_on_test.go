//go:build race

package loadgen

// raceEnabled skips the allocation guard: the race detector allocates on
// the paths it counts.
const raceEnabled = true
