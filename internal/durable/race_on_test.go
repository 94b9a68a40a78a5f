//go:build race

package durable

// raceEnabled skips the allocation guards: the race detector allocates
// on the paths they count.
const raceEnabled = true
