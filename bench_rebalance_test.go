package uvdiagram_test

// Rebalance benchmarks: the per-event cost of an online Reshard (full
// re-derivation + new layout, published with one pointer swap) and of
// concurrent per-shard compaction at parallelism 1 vs 2. CI runs these
// as the rebalance smoke stage (-bench 'Reshard|ConcurrentCompact').
// These benchmarks and TestReshardBalancesSkew are what watches the
// rebalance path; the end-to-end benchmark (bench/) has no reshard
// workload.

import (
	"context"
	"fmt"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/datagen"
)

// rebalanceFixture builds (once per config) a skewed sharded DB.
func rebalanceFixture(b *testing.B, n, shards int) *fixture {
	b.Helper()
	key := fmt.Sprintf("rb-%d-%d", n, shards)
	fixMu.Lock()
	defer fixMu.Unlock()
	if f, ok := fixes[key]; ok {
		return f
	}
	cfg := datagen.Config{N: n, Side: benchSide, Diameter: 40, Seed: 7}
	objs := datagen.Skewed(cfg, benchSide/10)
	db, err := uvdiagram.Build(objs, cfg.Domain(), &uvdiagram.Options{SeedK: 100, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	f := &fixture{db: db, queries: datagen.Queries(256, benchSide, 13)}
	fixes[key] = f
	return f
}

// BenchmarkReshard measures one online reshard of a skewed 16-shard
// database to weighted-median cuts (derivation + parallel shard builds
// + the layout swap).
func BenchmarkReshard(b *testing.B) {
	f := rebalanceFixture(b, 800, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.db.Reshard(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentCompact measures CompactAll over every shard at
// parallelism 1 versus 2 — the two-level locks let the P=2 rollout
// overlap disjoint shadow builds.
func BenchmarkConcurrentCompact(b *testing.B) {
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			f := rebalanceFixture(b, 800, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.db.CompactAll(context.Background(), p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
