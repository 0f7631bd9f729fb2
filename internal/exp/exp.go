// Package exp regenerates every table and figure of the paper's
// evaluation (Section VI). Each driver returns paper-style tables;
// the registry in this file names them and cmd/uvbench prints them.
// Serving performance (throughput, latency, churn, out-of-core) is not
// measured here: that is the end-to-end benchmark in bench/, declared
// by BENCHMARK.json.
package exp

import (
	"fmt"
	"io"
	"strings"
)

// Experiment is one entry of the registry: a name `uvbench -exp`
// accepts and the driver behind it.
type Experiment struct {
	Name  string
	Doc   string // one line for the -exp flag help
	InAll bool   // part of the Section VI sweep that "all" runs
	Run   func(sc Scale, progress func(string)) ([]*Table, error)
}

// AllName is the pseudo-experiment that runs every InAll entry of the
// registry in presentation order.
const AllName = "all"

// experiments is the registry, in presentation order. It is the only
// list of experiments: uvbench's flag help, its unknown-name error and
// "all" are derived from it.
var experiments = []Experiment{
	{"fig6", "PNN query time, index I/O and time components vs |O| and diameter (Fig. 6(a-d))", true, RunFig6},
	{"fig7", "construction time, pruning ratio and time breakdown of Basic/ICR/IC vs |O| (Fig. 7(a-e))", true, RunFig7Construction},
	{"fig7f", "construction time vs uncertainty-region diameter (Fig. 7(f))", true, single(RunFig7f)},
	{"fig7g", "IC construction time vs center skew σ (Fig. 7(g))", true, single(RunFig7g)},
	{"fig7h", "UV-partition query time vs range size (Fig. 7(h))", true, single(RunFig7h)},
	{"table2", "real-dataset query and construction summary (Table II)", true, single(RunTable2)},
	{"sensitivity", "split-threshold Tθ sensitivity (Section VI-B.1)", true, single(RunSensitivity)},
	{"extensions", "future-work extensions: RNN, order-k, continuous PNN, 3D", false, RunExtensions},
}

func single(run func(Scale, func(string)) (*Table, error)) func(Scale, func(string)) ([]*Table, error) {
	return func(sc Scale, progress func(string)) ([]*Table, error) {
		t, err := run(sc, progress)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

// Experiments returns the registry in presentation order.
func Experiments() []Experiment { return experiments }

// Names lists what Run accepts: AllName, then every registered
// experiment in presentation order.
func Names() []string {
	names := []string{AllName}
	for _, e := range experiments {
		names = append(names, e.Name)
	}
	return names
}

// resolve maps a name to the registry entries it runs: AllName to
// every InAll experiment, any other name to its own entry. An unknown
// name is an error that lists the valid ones.
func resolve(name string) ([]Experiment, error) {
	var es []Experiment
	for _, e := range experiments {
		if name == e.Name || (name == AllName && e.InAll) {
			es = append(es, e)
		}
	}
	if len(es) == 0 {
		return nil, fmt.Errorf("exp: unknown experiment %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
	return es, nil
}

// Run executes the named experiment at the given scale and returns its
// tables in presentation order. progress (optional) receives one line
// per configuration.
func Run(name string, sc Scale, progress func(string)) ([]*Table, error) {
	es, err := resolve(name)
	if err != nil {
		return nil, err
	}
	if progress == nil {
		progress = func(string) {}
	}
	var out []*Table
	for _, e := range es {
		tables, err := e.Run(sc, progress)
		if err != nil {
			return nil, err
		}
		out = append(out, tables...)
	}
	return out, nil
}

// Scale bundles the workload parameters of an experiment sweep. The
// paper's exact scale (10k–80k objects, 50 queries) takes tens of
// minutes in this in-process reproduction, so smaller presets exist for
// quick runs and for `go test -bench`.
type Scale struct {
	Name       string
	Sizes      []int // |O| sweep (Figures 6(a,b), 7(a–e))
	BasicSizes []int // sizes at which Basic is actually executed
	MidN       int   // dataset size for fixed-size experiments
	Queries    int   // PNN queries per configuration
	Side       float64
	Diameter   float64
	Diameters  []float64 // Figure 6(d), 7(f)
	Sigmas     []float64 // Figure 7(g)
	RangeSizes []float64 // Figure 7(h)
	Thetas     []float64 // Tθ sensitivity
	RealFrac   float64   // fraction of the real datasets' sizes
	SeedK      int
	Seed       int64
}

// Small is the quick-look preset (seconds to a few minutes).
func Small() Scale {
	return Scale{
		Name:       "small",
		Sizes:      []int{1000, 2000, 4000, 8000},
		BasicSizes: []int{250, 500, 1000},
		MidN:       4000,
		Queries:    20,
		Side:       10000,
		Diameter:   40,
		Diameters:  []float64{20, 40, 60, 80, 100},
		Sigmas:     []float64{1500, 2000, 2500, 3000, 3500},
		RangeSizes: []float64{100, 200, 300, 400, 500},
		Thetas:     []float64{0.2, 0.4, 0.6, 0.8, 1.0},
		RealFrac:   0.1,
		SeedK:      100,
		Seed:       20100301,
	}
}

// Medium is large enough for the paper's shapes to be visible and
// small enough to run on a laptop core in well under an hour.
func Medium() Scale {
	s := Small()
	s.Name = "medium"
	s.Sizes = []int{5000, 10000, 20000}
	s.BasicSizes = []int{400, 800}
	s.MidN = 10000
	s.Queries = 30
	s.Diameters = []float64{20, 60, 100}
	s.Thetas = []float64{0.2, 0.6, 1.0}
	s.RealFrac = 0.25
	s.SeedK = 300
	return s
}

// Paper is the full scale of Section VI-A.
func Paper() Scale {
	s := Small()
	s.Name = "paper"
	s.Sizes = []int{10000, 20000, 30000, 40000, 50000, 60000, 70000, 80000}
	s.BasicSizes = []int{1000, 2000, 4000}
	s.MidN = 30000
	s.Queries = 50
	s.RealFrac = 1.0
	s.SeedK = 300
	return s
}

// ScaleByName resolves a preset name.
func ScaleByName(name string) (Scale, error) {
	switch strings.ToLower(name) {
	case "small", "":
		return Small(), nil
	case "medium":
		return Medium(), nil
	case "paper":
		return Paper(), nil
	}
	return Scale{}, fmt.Errorf("exp: unknown scale %q (small, medium, paper)", name)
}

// Table is a printable experiment result.
type Table struct {
	ID      string // experiment id, e.g. "fig6a"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(pad(cell, widths[i]))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func ms(d float64) string  { return fmt.Sprintf("%.2f", d) }
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
