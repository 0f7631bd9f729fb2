// Command bench is the repository's end-to-end benchmark: four named
// workloads against a loopback server.Server, every answer class
// checked against a brute-force oracle, and a traced pass that
// attributes a request's time to the layers it crosses. README.md in
// this directory describes the workloads, the metrics and the process
// model; BENCHMARK.json at the repository root is the contract the
// driver runs it under.
//
//	go run ./bench                                  all workloads, timed and traced
//	go run ./bench -workload churn-mixed -trace 0   one workload, end-to-end metrics only
//	go run ./bench -compare a.json b.json           regression table between two results files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	runtime.GOMAXPROCS(conns) // server and load generator share the process and this host's 2 cores
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// results is the one schema of results.json and result-<workload>.json.
type results struct {
	Host       string             `json:"host"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Go         string             `json:"go"`
	Commit     string             `json:"commit"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Time       string             `json:"time"`
	Workloads  map[string]*result `json:"workloads"`
}

func stamp(seed int64, seconds float64) *results {
	host, _ := os.Hostname() // an empty host name is a fine stamp
	commit := "unknown"      // outside a git checkout, or no git
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &results{
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit, Seed: seed, Seconds: seconds, Time: time.Now().UTC().Format(time.RFC3339),
		Workloads: map[string]*result{},
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process (default: all four, each in a child process)")
	seed := fs.Int64("seed", 20100301, "seed of every dataset and query stream")
	seconds := fs.Float64("seconds", baseSecs, "seconds of traffic in the timed pass, warm-up round included; the traced pass scales its op counts by it")
	trace := fs.String("trace", "both", "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics; both")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for results.json, trace-<workload>.jsonl and scratch snapshots")
	compare := fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two results files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fmt.Fprintln(stderr, "bench: -trace is 0, 1 or both")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	var w *workload
	if *name != "" {
		found, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		w = &found
	}
	code, err := execute(w, *seed, *seconds, *trace, *out, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return code
}

// execute runs workload w in this process, or with w nil every workload
// in a child process of its own, so that each has its own heap, GC
// history and resident set. It returns the exit code: non-zero when an
// operation failed or an answer missed the oracle.
func execute(w *workload, seed int64, seconds float64, trace, out string, stdout, stderr io.Writer) (int, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return 0, err
	}
	rs := stamp(seed, seconds)
	if w != nil {
		res, err := runWorkload(*w, fullSizes, seed, seconds, trace, out)
		if err != nil {
			return 0, err
		}
		rs.Workloads[w.name] = res
		if err := writeJSON(filepath.Join(out, "result-"+w.name+".json"), rs); err != nil {
			return 0, err
		}
		printResult(stdout, res)
		return printDriverLine(stdout, res), nil
	}

	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", trace, "-out", out)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w.name, err)
			code = 1
			continue
		}
		var child results
		if err := readJSON(filepath.Join(out, "result-"+w.name+".json"), &child); err != nil {
			return 0, err
		}
		rs.Workloads[w.name] = child.Workloads[w.name]
	}
	if err := writeJSON(filepath.Join(out, "results.json"), rs); err != nil {
		return 0, err
	}
	fmt.Fprintf(stdout, "wrote %s\n", filepath.Join(out, "results.json"))
	return code, nil
}

// runWorkload runs one workload's passes in this process.
func runWorkload(w workload, sz sizes, seed int64, seconds float64, trace, out string) (*result, error) {
	dir, err := os.MkdirTemp(out, "scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := newResult(w.name)
	if trace != "1" {
		if err := newRig(w, sz, seed, dir, res).timedPass(seconds); err != nil {
			return nil, fmt.Errorf("%s: timed pass: %w", w.name, err)
		}
	}
	if trace != "0" {
		tracePath := filepath.Join(out, "trace-"+w.name+".jsonl")
		if err := newRig(w, sz, seed, dir, res).tracedPass(seconds, tracePath); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// printResult prints every metric by name with its unit.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n== %s: attempted %d, failed %d, error_rate %g\n", res.Workload, res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, note := range res.Notes {
		fmt.Fprintf(w, "   FAIL %s\n", note)
	}
	for _, group := range [][]def{endToEnd, perLayer} {
		for _, d := range group {
			m, ok := res.Metrics[d.name]
			if !ok {
				continue
			}
			extra := ""
			if m.Pct != 0 {
				extra = fmt.Sprintf("  (p%.4g)", m.Pct)
			}
			fmt.Fprintf(w, "%-30s %14.6g %-9s n=%-8d q1=%.6g q3=%.6g%s\n", d.name, m.Value, m.Unit, m.N, m.Q1, m.Q3, extra)
		}
	}
}

// printDriverLine prints the driver's result object as the last line of
// standard output and returns the exit code: non-zero when an operation
// failed or an answer missed the oracle.
func printDriverLine(w io.Writer, res *result) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Fprintf(w, "%s\n", data)
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
