//go:build race

package hirrt_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
