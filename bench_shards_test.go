package uvdiagram_test

// Sharded-engine benchmarks: query routing overhead and mixed churn at
// several shard counts. CI runs these as the sharded smoke stage
// (-bench 'Sharded'). They are what watches the
// shard sweep; the end-to-end benchmark (bench/) serves one fixed
// four-shard engine.

import (
	"fmt"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/datagen"
)

// shardedFixture builds (once per shard count) a sharded DB.
func shardedFixture(b *testing.B, n, shards int) *fixture {
	b.Helper()
	key := fmt.Sprintf("sh-%d-%d", n, shards)
	fixMu.Lock()
	defer fixMu.Unlock()
	if f, ok := fixes[key]; ok {
		return f
	}
	cfg := datagen.Config{N: n, Side: benchSide, Diameter: 40, Seed: 7}
	objs := datagen.Uniform(cfg)
	db, err := uvdiagram.Build(objs, cfg.Domain(), &uvdiagram.Options{SeedK: 100, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	f := &fixture{db: db, queries: datagen.Queries(256, benchSide, 13)}
	fixes[key] = f
	return f
}

// BenchmarkShardedPNN measures point-query latency through shard
// routing (S=1 is the unrouted baseline).
func BenchmarkShardedPNN(b *testing.B) {
	for _, s := range []int{1, 4} {
		b.Run(fmt.Sprintf("S=%d", s), func(b *testing.B) {
			f := shardedFixture(b, 2000, s)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := f.db.PNN(f.queries[i%len(f.queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedChurn measures a mixed insert/delete/query op stream
// against a sharded engine (the in-process counterpart of the server
// churn benchmark).
func BenchmarkShardedChurn(b *testing.B) {
	for _, s := range []int{1, 4} {
		b.Run(fmt.Sprintf("S=%d", s), func(b *testing.B) {
			cfg := datagen.Config{N: 400, Side: benchSide, Diameter: 40, Seed: 7}
			objs := datagen.Uniform(cfg)
			db, err := uvdiagram.Build(objs, cfg.Domain(), &uvdiagram.Options{SeedK: 100, Shards: s})
			if err != nil {
				b.Fatal(err)
			}
			qs := datagen.Queries(256, benchSide, 13)
			live := make([]int32, db.Len())
			for i := range live {
				live[i] = int32(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch i % 10 {
				case 0:
					o := uvdiagram.NewObject(db.NextID(),
						qs[i%len(qs)].X, qs[i%len(qs)].Y, 20, nil)
					if err := db.Insert(o); err != nil {
						b.Fatal(err)
					}
					live = append(live, o.ID)
				case 1:
					if len(live) > 50 {
						id := live[i%len(live)]
						live[i%len(live)] = live[len(live)-1]
						live = live[:len(live)-1]
						if err := db.Delete(id); err != nil {
							b.Fatal(err)
						}
					}
				default:
					if _, _, err := db.PNN(qs[i%len(qs)]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
