//go:build race

package main

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
