// Command uvbench regenerates the paper's evaluation (Section VI):
// every figure and table, at a selectable scale.
//
// Usage:
//
//	uvbench [-exp all|fig6|fig7|fig7f|fig7g|fig7h|table2|sensitivity|extensions]
//	        [-scale small|medium|paper] [-quiet]
//	        [-cpuprofile cpu.out] [-memprofile mem.out]
//
// The experiments are the registry of internal/exp (the list above is
// checked against it by this package's test); "all" runs the Section VI
// sweep, "extensions" the future-work tables. Serving performance is
// measured by the end-to-end benchmark instead: `go run ./bench`.
//
// -cpuprofile and -memprofile write pprof profiles of the selected
// experiment, so future perf work can be profiled in place (profiles
// are flushed on normal completion).
//
// Tables go to stdout; progress lines go to stderr. The "paper" scale
// matches Section VI-A (10k–80k objects, 50 queries) and takes tens of
// minutes; "small" finishes in about a minute.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"uvdiagram/internal/exp"
)

// expHelp is the -exp flag's help text: one line per registry entry.
func expHelp() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "experiment, one of:\n  %-12s every experiment below except those marked, in this order", exp.AllName)
	for _, e := range exp.Experiments() {
		fmt.Fprintf(&sb, "\n  %-12s %s", e.Name, e.Doc)
		if !e.InAll {
			sb.WriteString(" (not in " + exp.AllName + ")")
		}
	}
	return sb.String()
}

func main() {
	expName := flag.String("exp", exp.AllName, expHelp())
	scaleName := flag.String("scale", "small", "scale preset: small, medium, paper")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (post-GC) to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	sc, err := exp.ScaleByName(*scaleName)
	if err != nil {
		fatal(err)
	}
	progress := func(msg string) {
		if !*quiet {
			fmt.Fprintln(os.Stderr, "... "+msg)
		}
	}

	tables, err := exp.Run(*expName, sc, progress)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# uvbench scale=%s exp=%s\n\n", sc.Name, *expName)
	for _, t := range tables {
		if err := t.Fprint(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uvbench:", err)
	os.Exit(1)
}
