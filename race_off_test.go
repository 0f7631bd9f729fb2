//go:build !race

package uvdiagram

// RaceEnabled reports whether the race detector is compiled in (see
// race_on_test.go).
const RaceEnabled = false
