//go:build race

package uvdiagram

// RaceEnabled reports whether the race detector is compiled in; timing
// gates and long churn tests skip themselves when it is. It is exported
// for the external test package, which reads it as raceEnabled.
const RaceEnabled = true
