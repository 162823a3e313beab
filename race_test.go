//go:build race

package repro_test

// raceEnabled: the detector empties sync.Pool at random, so allocation
// counts under it say nothing about the pooled paths.
const raceEnabled = true
