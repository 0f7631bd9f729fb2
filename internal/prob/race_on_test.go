//go:build race

package prob

// raceEnabled reports whether the race detector is compiled in; the
// kernel ratio gate skips itself when it is.
const raceEnabled = true
