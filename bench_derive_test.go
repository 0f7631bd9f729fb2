package uvdiagram_test

// Benchmarks of the output-sensitive derivation fast path and the
// allocation-free batched query hot path, with allocation reporting.
// The naive reference's side of the ratio is
// BenchmarkDeriveCRSetsReference in internal/core (same n=800 fixture);
// CI gates that ratio in one process (TestDeriveRatio in
// internal/core). End to end the derivation shows up as setup_s and
// core.derive_us_per_obj of `go run ./bench`.

import (
	"sync"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/core"
	"uvdiagram/internal/datagen"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
)

type deriveFixture struct {
	cfg   datagen.Config
	store *uncertain.Store
	tree  *rtree.Tree
	opts  core.BuildOptions
}

var (
	deriveFixMu sync.Mutex
	deriveFixes = map[int]*deriveFixture{}
)

func getDeriveFixture(tb testing.TB, n int) *deriveFixture {
	tb.Helper()
	deriveFixMu.Lock()
	defer deriveFixMu.Unlock()
	if f, ok := deriveFixes[n]; ok {
		return f
	}
	cfg := datagen.Config{N: n, Side: benchSide, Diameter: datagen.DefaultDiameter, Seed: 7}
	objs := datagen.Uniform(cfg)
	store, err := uncertain.NewStore(objs, pager.New(pager.DefaultPageSize))
	if err != nil {
		tb.Fatal(err)
	}
	opts := core.DefaultBuildOptions()
	f := &deriveFixture{cfg: cfg, store: store, tree: core.BuildHelperRTree(store, opts.Fanout), opts: opts}
	deriveFixes[n] = f
	return f
}

// BenchmarkDeriveCRSets is the whole-population derivation pass (the
// phase dominating Build/Compact) on the fast path.
func BenchmarkDeriveCRSets(b *testing.B) {
	f := getDeriveFixture(b, 800)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.DeriveCRSets(f.store, f.cfg.Domain(), f.tree, f.opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeriveOne derives single objects with a long-lived scratch —
// the Insert/Delete re-derivation unit; allocs/op here is the retained
// cr-set plus R-tree leaf decodes, nothing else.
func BenchmarkDeriveOne(b *testing.B) {
	f := getDeriveFixture(b, 800)
	dense := f.store.Dense()
	sc := core.NewDeriveScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DeriveCR(f.tree, dense[i%len(dense)], dense, f.cfg.Domain(),
			f.opts.SeedK, f.opts.SeedSectors, f.opts.RegionSamples, sc)
	}
}

// BenchmarkBatchPNN measures the scratch-pooled batched PNN hot path
// (scratch pool warm); allocs/op divided by the batch size is the
// per-query allocation count the acceptance bar bounds.
func BenchmarkBatchPNN(b *testing.B) {
	f := getFixture(b, 4000, datagen.DefaultDiameter)
	qs := f.queries
	opts := &uvdiagram.BatchOptions{}
	if _, err := f.db.BatchNN(qs, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.db.BatchNN(qs, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(qs)), "queries/op")
}
