//go:build !race

package hirrt_test

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count assertions are skipped under -race: the detector's
// shadow allocations make testing.AllocsPerRun meaningless.
const raceEnabled = false
