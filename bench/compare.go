package main

import (
	"fmt"
	"io"
	"math"
)

// compareFiles prints, per (metric, workload) row, both values, the
// ratio b/a with its base, the bound and a verdict on b against a, and
// checks that the exact counts of two runs of one seed are equal. It
// returns 1 if any row is worse or any count differs. The verdict has a
// direction; an A/A check runs it both ways.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var a, b results
	if err := readJSON(pathA, &a); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if err := readJSON(pathB, &b); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "a: %s  commit %s  seed %d  %s\n", pathA, a.Commit, a.Seed, a.Time)
	fmt.Fprintf(stdout, "b: %s  commit %s  seed %d  %s\n\n", pathB, b.Commit, b.Seed, b.Time)
	fmt.Fprintf(stdout, "%-12s %-24s %14s %14s %-9s %18s %6s  %s\n", "workload", "metric", "a", "b", "unit", "b/a (base a)", "bound", "verdict")
	bad := 0
	for _, name := range sortedKeys(a.Workloads) {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if rb == nil {
			fmt.Fprintf(stdout, "%-12s only in a\n", name)
			continue
		}
		for _, d := range endToEnd {
			ma, oka := ra.Metrics[d.name]
			mb, okb := rb.Metrics[d.name]
			if !oka || !okb {
				continue
			}
			verdict := verdictOf(d, ma, mb)
			if verdict == "worse" {
				bad++
			}
			fmt.Fprintf(stdout, "%-12s %-24s %14.6g %14.6g %-9s %9.4f (%.6g) %5.0f%%  %s\n",
				name, d.name, ma.Value, mb.Value, d.unit, mb.Value/ma.Value, ma.Value, 100*d.bound, verdict)
		}
		if rb.Failed > ra.Failed {
			fmt.Fprintf(stdout, "%-12s %-24s %14d %14d %-9s %28s  worse\n", name, "failed", ra.Failed, rb.Failed, "count", "may not rise")
			bad++
		}
		if a.Seed != b.Seed {
			continue // other inputs, other counts
		}
		for _, group := range [][]def{endToEnd, perLayer} {
			for _, d := range group {
				ma, oka := ra.Metrics[d.name]
				mb, okb := rb.Metrics[d.name]
				if d.exact && oka && okb && ma.Value != mb.Value {
					fmt.Fprintf(stdout, "%-12s %-24s %14.6g %14.6g %-9s %28s  differs\n", name, d.name, ma.Value, mb.Value, d.unit, "exact count")
					bad++
				}
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "\n%d rows worse or differing\n", bad)
		return 1
	}
	if a.Seed != b.Seed {
		fmt.Fprintln(stdout, "\nno row worse; seeds differ, so exact counts were not compared")
		return 0
	}
	fmt.Fprintln(stdout, "\nno row worse; exact counts equal")
	return 0
}

// verdictOf judges b against a: "unresolved" when either run's own
// spread (the quartiles over its windows) is wider than the bound,
// "worse" when b is worse than a by more than the bound, else "ok".
func verdictOf(d def, a, b metric) string {
	spread := func(m metric) float64 { return math.Abs(m.Q3-m.Q1) / math.Abs(m.Value) }
	if spread(a) > d.bound || spread(b) > d.bound {
		return "unresolved"
	}
	worse := b.Value > a.Value*(1+d.bound)
	if d.higher {
		worse = b.Value < a.Value*(1-d.bound)
	}
	if worse {
		return "worse"
	}
	return "ok"
}
