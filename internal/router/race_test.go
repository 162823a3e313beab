//go:build race

package router

// raceEnabled: the detector empties sync.Pool at random, so allocation
// counts under it say nothing about the pooled paths.
const raceEnabled = true
