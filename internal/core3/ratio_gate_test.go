package core3

import (
	"testing"

	"uvdiagram/internal/geom3"
	"uvdiagram/internal/perfgate"
)

// TestBuild3Ratio is the blocking perf gate of the 3-D build fast path:
// Build3Reference must cost ≥ 5.5 times Build3's CPU time on the same
// seeded n = 300 population, one worker each (measured 7.4–11.7×,
// doubled 3.3–4.3×).
func TestBuild3Ratio(t *testing.T) {
	perfgate.Skip(t)
	objs, opts := randObjs3(300, 1000, 1, 26), DefaultOptions3()
	opts.Workers = 1
	if r := perfgate.Ratio(t,
		func() error { _, _, err := Build3Reference(objs, geom3.Cube(1000), opts); return err },
		func() error { _, _, err := Build3(objs, geom3.Cube(1000), opts); return err }); r < 5.5 {
		t.Errorf("Build3 is %.1fx faster than its reference, want ≥ 5.5x", r)
	}
}
