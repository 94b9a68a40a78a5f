//go:build !race

package conc

const raceEnabled = false
