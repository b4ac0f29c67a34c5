//go:build race

package ctp

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
