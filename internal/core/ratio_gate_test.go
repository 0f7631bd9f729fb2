package core

import (
	"testing"

	"uvdiagram/internal/datagen"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/perfgate"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
)

// gateFixture is the seeded input of a build perf gate: the retained
// reference must cost a multiple of the fast path's CPU time, bounded
// between the ratio measured and the ratio with the fast work doubled.
func gateFixture(t *testing.T, n int) (*uncertain.Store, geom.Rect, *rtree.Tree, BuildOptions) {
	perfgate.Skip(t)
	cfg := datagen.Config{N: n, Side: 10000, Diameter: datagen.DefaultDiameter, Seed: 7}
	store, opts := makeStore(t, datagen.Uniform(cfg)), DefaultBuildOptions()
	opts.Workers = 1
	return store, cfg.Domain(), BuildHelperRTree(store, opts.Fanout), opts
}

// TestDeriveRatio: n = 800, measured 15.7–24.3×, doubled 8.2–10.2×.
func TestDeriveRatio(t *testing.T) {
	s, d, tr, o := gateFixture(t, 800)
	if r := perfgate.Ratio(t,
		func() error { _, err := DeriveCRSetsReference(s, d, tr, o); return err },
		func() error { _, _, err := DeriveCRSets(s, d, tr, o); return err }); r < 12 {
		t.Errorf("DeriveCRSets is %.1fx faster than its reference, want ≥ 12x", r)
	}
}

// TestOrderKBuildRatio: k = 2, n = 400, measured 5.6–8.5×, doubled 3.2–3.7×.
func TestOrderKBuildRatio(t *testing.T) {
	s, d, tr, o := gateFixture(t, 400)
	if r := perfgate.Ratio(t,
		func() error { _, _, err := BuildOrderKReference(s, d, tr, 2, o); return err },
		func() error { _, _, err := BuildOrderK(s, d, tr, 2, o); return err }); r < 4.5 {
		t.Errorf("BuildOrderK is %.1fx faster than its reference, want ≥ 4.5x", r)
	}
}
