package exp

import (
	"reflect"
	"strings"
	"testing"
)

// TestRegistry holds the experiment table to what uvbench promises:
// unique names that all resolve, an unknown name that errors naming
// the valid ones, and an "all" that is exactly today's sweep.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range Names() {
		if seen[name] {
			t.Errorf("name %q registered twice", name)
		}
		seen[name] = true
		es, err := resolve(name)
		if err != nil {
			t.Errorf("resolve(%q): %v", name, err)
			continue
		}
		if name != AllName && (len(es) != 1 || es[0].Name != name) {
			t.Errorf("resolve(%q) = %d entries, want itself", name, len(es))
		}
		for _, e := range es {
			if e.Run == nil || e.Doc == "" {
				t.Errorf("experiment %q lacks a driver or a help line", e.Name)
			}
		}
	}
	if len(seen) != len(experiments)+1 {
		t.Errorf("Names() has %d entries for %d experiments", len(seen), len(experiments))
	}

	_, err := Run("churn", tinyScale(), nil)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-experiment error %q does not name %q", err, name)
		}
	}

	// "all" is the Section VI sweep: every paper driver exactly once,
	// in presentation order, and nothing else.
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	tables, err := Run(AllName, tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, tb := range tables {
		ids = append(ids, tb.ID)
	}
	want := []string{
		"fig6a", "fig6b", "fig6c", "fig6d",
		"fig7a", "fig7b", "fig7c", "fig7d", "fig7e",
		"fig7f", "fig7g", "fig7h", "table2", "sensitivity",
	}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("all produced tables\n %v\nwant\n %v", ids, want)
	}
}
