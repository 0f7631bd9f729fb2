package core

import (
	"math/rand"
	"testing"

	"uvdiagram/internal/datagen"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
)

func equalIDSlices(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDeriveEquivalenceProperty: the output-sensitive derivation (lazy
// seeds, incremental radius profile, scratch arenas, sort-merge union)
// must produce BITWISE-identical constraint sets to the retained naive
// reference, per object, under every strategy — the hard equivalence
// bar of the fast path. Runs over uniform and skewed data, with and
// without C-pruning, and with parallel workers (whose results must
// match the sequential pass too).
func TestDeriveEquivalenceProperty(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy Strategy
		n        int
		skewed   bool
		disableC bool
		workers  int
	}{
		{"IC-uniform", StrategyIC, 300, false, false, 1},
		{"IC-skewed", StrategyIC, 300, true, false, 1},
		{"IC-noCPrune", StrategyIC, 200, false, true, 1},
		{"IC-workers", StrategyIC, 300, false, false, 4},
		{"ICR-uniform", StrategyICR, 150, false, false, 1},
		{"Basic-uniform", StrategyBasic, 80, false, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := datagen.Config{N: tc.n, Side: 2000, Diameter: 40, Seed: int64(31 + tc.n)}
			objs := datagen.Uniform(cfg)
			if tc.skewed {
				objs = datagen.Skewed(cfg, 300)
			}
			store, err := uncertain.NewStore(objs, pager.New(pager.DefaultPageSize))
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultBuildOptions()
			opts.Strategy = tc.strategy
			opts.SeedK = 60
			opts.DisableCPrune = tc.disableC
			opts.Workers = tc.workers
			tree := BuildHelperRTree(store, opts.Fanout)

			want, err := DeriveCRSetsReference(store, cfg.Domain(), tree, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := DeriveCRSets(store, cfg.Domain(), tree, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("cr-set count %d, want %d", len(got), len(want))
			}
			for i := range want {
				if !equalIDSlices(got[i], want[i]) {
					t.Fatalf("object %d: cr-set %v, reference %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestDeriveCRMatchesDeriveCRObjects: the scratch-based mutation-path
// derivation, the convenience form and the reference agree object by
// object — including when one scratch is reused across many objects
// (the buffer-poisoning hazard the arenas must not introduce), and for
// objects appended to the store and inserted into the helper R-tree
// after the bulk load (what DB.Insert derives over).
func TestDeriveCRMatchesDeriveCRObjects(t *testing.T) {
	cfg := datagen.Config{N: 250, Side: 2000, Diameter: 40, Seed: 77}
	objs := datagen.Uniform(cfg)
	store, err := uncertain.NewStore(objs, pager.New(pager.DefaultPageSize))
	if err != nil {
		t.Fatal(err)
	}
	tree := BuildHelperRTree(store, rtree.DefaultFanout)
	sc := NewDeriveScratch()
	check := func(i int) {
		t.Helper()
		dense := store.Dense()
		got := DeriveCR(tree, dense[i], dense, cfg.Domain(), 60, 8, 256, sc)
		res := DeriveCRObjects(tree, dense[i], dense, cfg.Domain(), 60, 8, 256)
		ref := DeriveCRObjectsReference(tree, dense[i], dense, cfg.Domain(), 60, 8, 256)
		if !equalIDSlices(got, ref.CR) {
			t.Fatalf("object %d: DeriveCR %v, reference %v", i, got, ref.CR)
		}
		if !equalIDSlices(res.CR, ref.CR) {
			t.Fatalf("object %d: DeriveCRObjects %v, reference %v", i, res.CR, ref.CR)
		}
		if !equalIDSlices(res.Seeds, ref.Seeds) {
			t.Fatalf("object %d: seeds %v, reference %v", i, res.Seeds, ref.Seeds)
		}
		if res.NI != ref.NI || res.NC != ref.NC {
			t.Fatalf("object %d: counters (%d,%d), reference (%d,%d)", i, res.NI, res.NC, ref.NI, ref.NC)
		}
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		check(rng.Intn(store.Len()))
	}
	// Grow the population dynamically and derive each newcomer.
	for k := 0.0; k < 8; k++ {
		o := uncertain.New(int32(store.Len()), geom.Circle{C: geom.Pt(123+k*211, 1777-k*177), R: 20}, nil)
		if err := store.Append(o); err != nil {
			t.Fatal(err)
		}
		tree.Insert(rtree.Item{ID: o.ID, MBC: o.Region, Ptr: uint64(o.ID)})
		check(int(o.ID))
	}
}

// BenchmarkDeriveCRSetsReference is the retained naive derivation over
// the fixture of the root package's BenchmarkDeriveCRSets (n=800,
// uniform, seed 7) — the "before" side of the fast path's speed ratio.
func BenchmarkDeriveCRSetsReference(b *testing.B) {
	cfg := datagen.Config{N: 800, Side: 10000, Diameter: datagen.DefaultDiameter, Seed: 7}
	store, err := uncertain.NewStore(datagen.Uniform(cfg), pager.New(pager.DefaultPageSize))
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultBuildOptions()
	tree := BuildHelperRTree(store, opts.Fanout)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DeriveCRSetsReference(store, cfg.Domain(), tree, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMergeIDs is the standalone unit test of the sorted-union merge:
// the sort-merge implementation must agree with the map-based reference
// on random inputs (duplicates inside and across inputs included) and
// must not modify its inputs.
func TestMergeIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		a := make([]int32, rng.Intn(30))
		b := make([]int32, rng.Intn(30))
		for i := range a {
			a[i] = int32(rng.Intn(20))
		}
		for i := range b {
			b[i] = int32(rng.Intn(20))
		}
		aCopy := append([]int32(nil), a...)
		bCopy := append([]int32(nil), b...)
		got := mergeIDs(a, b)
		want := referenceMergeIDs(a, b)
		if !equalIDSlices(got, want) {
			t.Fatalf("trial %d: mergeIDs(%v, %v) = %v, want %v", trial, a, b, got, want)
		}
		if !equalIDSlices(a, aCopy) || !equalIDSlices(b, bCopy) {
			t.Fatalf("trial %d: mergeIDs modified its inputs", trial)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("trial %d: result %v not strictly ascending", trial, got)
			}
		}
	}
	if got := mergeIDs(nil, nil); len(got) != 0 {
		t.Fatalf("mergeIDs(nil, nil) = %v, want empty", got)
	}
}

// TestDeriveEquivalenceDynamicTree: the group path over a helper R-tree
// that grew and shrank by single inserts and deletes — leaves of uneven
// size and spread, tombstoned store slots — still derives the
// reference's sets, sequentially and on 3 workers.
func TestDeriveEquivalenceDynamicTree(t *testing.T) {
	cfg := datagen.Config{N: 400, Side: 2000, Diameter: 40, Seed: 83}
	store, err := uncertain.NewStore(datagen.Skewed(cfg, 400), pager.New(pager.DefaultPageSize))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultBuildOptions()
	opts.SeedK = 60
	tree := BuildHelperRTree(store, 16)
	rng := rand.New(rand.NewSource(84))
	for i := 0; i < 120; i++ {
		if id := int32(rng.Intn(store.Len())); store.Alive(id) && rng.Intn(2) == 0 {
			o := store.Dense()[id]
			if err := store.Delete(id); err != nil {
				t.Fatal(err)
			}
			tree.Delete(id, o.Region)
			continue
		}
		c := geom.Pt(rng.Float64()*cfg.Side, rng.Float64()*cfg.Side)
		o := uncertain.New(int32(store.Len()), geom.Circle{C: c, R: 5 + rng.Float64()*30}, nil)
		if err := store.Append(o); err != nil {
			t.Fatal(err)
		}
		tree.Insert(rtree.Item{ID: o.ID, MBC: o.Region, Ptr: uint64(o.ID)})
	}
	want, err := DeriveCRSetsReference(store, cfg.Domain(), tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		opts.Workers = workers
		got, _, err := DeriveCRSets(store, cfg.Domain(), tree, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !equalIDSlices(got[i], want[i]) {
				t.Fatalf("workers %d, object %d: cr-set %v, reference %v", workers, i, got[i], want[i])
			}
		}
	}
}
