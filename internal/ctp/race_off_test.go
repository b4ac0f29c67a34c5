//go:build !race

package ctp

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count assertions are skipped under -race: the detector's
// shadow allocations make the counts meaningless.
const raceEnabled = false
