//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; the
// radial fold ratio gate skips itself when it is.
const raceEnabled = true
