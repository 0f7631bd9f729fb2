package uvdiagram

// Mutation-path micro-benchmarks: the CI perf smoke drives these (see
// perf_smoke_test.go) and the allocation report keeps the COW surgery
// honest about per-op garbage.

import (
	"testing"

	"uvdiagram/internal/datagen"
)

// benchDB builds the shared mutation-bench database: mid-size uniform
// population at the density of the paper's mid-size dataset (4000
// objects on a 10000² domain), 4 spatial shards (the sharded path is the
// production shape; it exercises the per-shard no-op skip too).
func benchDB(b *testing.B, n int) *DB {
	b.Helper()
	cfg := datagen.Config{N: n, Side: 7000, Diameter: 40, Seed: 7}
	db, err := Build(datagen.Uniform(cfg), cfg.Domain(), &Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkMutationDelete measures one Delete against a 2000-object
// population, re-inserting the victim between iterations so the
// population (and the dependency structure being repaired) stays at
// steady state.
func BenchmarkMutationDelete(b *testing.B) {
	db := benchDB(b, 2000)
	live := make([]int32, 2000)
	for i := range live {
		live[i] = int32(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Delete(live[i%2000]); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		o := NewObject(db.NextID(), float64(37+(i*131)%6900), float64(91+(i*197)%6900), 20, nil)
		if err := db.Insert(o); err != nil {
			b.Fatal(err)
		}
		live[i%2000] = o.ID
		b.StartTimer()
	}
	ms := db.MutationStats()
	if ms.Deletes > 0 {
		b.ReportMetric(float64(ms.Rederived)/float64(ms.Deletes), "rederived/delete")
	}
}

// BenchmarkMutationInsert measures one Insert (derivation + registry
// append + leaf insertion + profile repair) against the same steady
// population, deleting the inserted object between iterations.
func BenchmarkMutationInsert(b *testing.B) {
	db := benchDB(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := NewObject(db.NextID(), float64(37+(i*131)%6900), float64(91+(i*197)%6900), 20, nil)
		if err := db.Insert(o); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := db.Delete(o.ID); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
