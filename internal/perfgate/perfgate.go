// Package perfgate times code paths against each other in CPU time for
// the tests' perf gates: a ratio that holds on any host, idle or loaded.
package perfgate

import (
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"
)

var race bool // set under the race detector (race.go)

// Skip skips a timing gate under -short and under the race detector.
func Skip(t *testing.T) {
	if testing.Short() || race {
		t.Skip("timing gate: skipped under -short and -race")
	}
}

// CPU returns the CPU time the process has used.
func CPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad argument
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Ratio times a against b, interleaved (the side with less CPU time
// spent runs next, after a GC so neither pays for the other's garbage)
// until each has run 3 times and for 0.3 s; it returns a's median run
// over b's.
func Ratio(t *testing.T, a, b func() error) float64 {
	t.Helper()
	runs, spent := [2][]time.Duration{}, [2]time.Duration{}
	for more := func(i int) bool { return len(runs[i]) < 3 || spent[i] < 300*time.Millisecond }; more(0) || more(1); {
		i := 0
		if !more(0) || more(1) && spent[1] < spent[0] {
			i = 1
		}
		runtime.GC()
		start := CPU()
		if err := [2]func() error{a, b}[i](); err != nil {
			t.Fatal(err)
		}
		d := CPU() - start
		runs[i], spent[i] = append(runs[i], d), spent[i]+d
	}
	for i, r := range runs {
		slices.Sort(r)
		spent[i] = r[len(r)/2]
	}
	t.Logf("median %v against %v: %.2fx", spent[0], spent[1], float64(spent[0])/float64(spent[1]))
	return float64(spent[0]) / float64(spent[1])
}
