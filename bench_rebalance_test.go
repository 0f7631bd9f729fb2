package uvdiagram_test

// Rebalance benchmark: the per-event cost of an online Reshard (full
// re-derivation + new layout, published with one pointer swap). This
// benchmark and TestReshardBalancesSkew are what watches the rebalance
// path; the end-to-end benchmark (bench/) has no reshard workload.

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
