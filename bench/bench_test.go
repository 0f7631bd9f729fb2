package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in metrics.go
// and workloads.go in step, and inside the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if got := spec.Command; len(got) != 3 || got[0] != "go" || got[1] != "run" || got[2] != "./bench" {
		t.Errorf("command = %v", got)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if spec.RunSeconds != baseSecs {
		t.Errorf("run_seconds = %d, the harness's base is %d", spec.RunSeconds, baseSecs)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why || len(got.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), workloads.go %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	better := func(d def) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	check := func(kind string, got []entry, want []def, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better(d) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s name %q is outside the driver's alphabet", kind, d.name)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in metrics.go", kind, d.name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s carries a bound", kind, d.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) > 8 {
		t.Errorf("over the driver's limits: %d end-to-end, %d per-layer, %d workloads", len(endToEnd), len(perLayer), len(workloads))
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].higher {
		t.Errorf("setup_s is missing or misdeclared: %+v", endToEnd[0])
	}
}

// TestSmoke runs every workload, timed and traced, at a tiny size and
// checks what the full run promises: every declared metric emitted
// (result.set panics on an undeclared or repeated one), no failed
// operation, and a trace whose child spans lie inside their parents.
func TestSmoke(t *testing.T) {
	tiny := sizes{
		subs: 16, frame: 32, oracle: 20, scale: 0.02,
		pnnOps: 1000, knnOps: 10000, moveOps: 10000, pairs: 100, pushers: 4, derive: 10,
	}
	out := t.TempDir()
	rs := stamp(7, 2)
	for _, w := range workloads {
		if testing.Short() && w.name != "churn-mixed" {
			continue // one workload exercises every phase; the others differ in data only
		}
		w.n, w.setups = 300, 2
		res, err := runWorkload(w, tiny, 7, 2, "both", out)
		if err != nil {
			t.Fatal(err)
		}
		rs.Workloads[w.name] = res
		if res.Failed != 0 || !res.Correct {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.Notes)
		}
		for _, group := range [][]def{endToEnd, perLayer} {
			for _, d := range group {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("%s: metric %s not emitted", w.name, d.name)
				}
			}
		}
		if got, want := len(res.Metrics), len(endToEnd)+len(perLayer); got != want {
			t.Errorf("%s: %d metrics emitted, %d declared", w.name, got, want)
		}
		checkTrace(t, filepath.Join(out, "trace-"+w.name+".jsonl"))
	}

	// -compare: a results file against itself has one row per end-to-end
	// metric and workload, none worse and every count equal; against a
	// copy with a metric worsened past its bound, or with an exact count
	// changed, it exits 1.
	path := filepath.Join(out, "results.json")
	if err := writeJSON(path, rs); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := compareFiles(path, path, &stdout, &stderr); code != 0 {
		t.Errorf("-compare of a file with itself exits %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	if rows, want := strings.Count(stdout.String(), "%  "), len(rs.Workloads)*len(endToEnd); rows != want {
		t.Errorf("-compare of a file with itself prints %d rows, want %d:\n%s", rows, want, stdout.String())
	}
	for name, factor := range map[string]float64{"rss_mb": 2, "core.leaves": 1.5} {
		var spoiled results
		if err := readJSON(path, &spoiled); err != nil {
			t.Fatal(err)
		}
		metrics := spoiled.Workloads["churn-mixed"].Metrics
		m := metrics[name]
		m.Value *= factor
		metrics[name] = m
		other := filepath.Join(out, "spoiled.json")
		if err := writeJSON(other, &spoiled); err != nil {
			t.Fatal(err)
		}
		stdout.Reset()
		if code := compareFiles(path, other, &stdout, &stderr); code != 1 {
			t.Errorf("-compare with %s multiplied by %v exits %d:\n%s%s", name, factor, code, stdout.String(), stderr.String())
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int]span{}
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	roots, children := 0, 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d ends before it starts", path, s.ID)
		}
		if s.Parent == 0 {
			roots++
			continue
		}
		children++
		p, ok := byID[s.Parent]
		if !ok || p.Req != s.Req || s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %d (%s) is not inside its parent %d", path, s.ID, s.Name, s.Parent)
		}
	}
	if roots == 0 || children == 0 {
		t.Errorf("%s: %d root and %d child spans", path, roots, children)
	}
}

func TestTailPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	// 2000 samples support p99 (20 beyond); 100 support only p90.
	if m := tail(ramp(2000)); m.Pct != 99 || m.N != 2000 {
		t.Errorf("2000 samples: p%v over %d", m.Pct, m.N)
	}
	if m := tail(ramp(100)); m.Pct != 90 || m.Value < 89 || m.Value > 92 {
		t.Errorf("100 samples: p%v = %v", m.Pct, m.Value)
	}
}
