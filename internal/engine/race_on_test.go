//go:build race

package engine

// raceEnabled marks a build under the race detector, which allocates on the
// paths the allocation tests count and slows every operation by 5–20×.
const raceEnabled = true
