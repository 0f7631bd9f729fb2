package uvdiagram_test

// Benchmarks of the out-of-core serving path: batched PNN against a
// database opened pager=mmap from a page-image snapshot — leaf
// reads are zero-copy views into the mapped file. CI gates the mapped
// against a heap-opened copy in one process (TestOutOfCoreRatio); end
// to end the comparison is the cold-open workload of `go run ./bench`
// against pnn-serve (setup_s, rss_mb, pnn_qps, pager.*).

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/datagen"
)

type outOfCoreFixture struct {
	db      *uvdiagram.DB
	queries []uvdiagram.Point
}

var (
	oocFixMu sync.Mutex
	oocFix   *outOfCoreFixture
)

// getOutOfCoreFixture builds a 2000-object database once, snapshots it
// to a temp file and reopens it mmap-backed (the snapshot file is
// unlinked immediately — the mapping keeps it alive for the process).
func getOutOfCoreFixture(tb testing.TB) *outOfCoreFixture {
	tb.Helper()
	oocFixMu.Lock()
	defer oocFixMu.Unlock()
	if oocFix != nil {
		return oocFix
	}
	cfg := datagen.Config{N: 2000, Side: benchSide, Diameter: datagen.DefaultDiameter, Seed: 7}
	built, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), &uvdiagram.Options{Shards: 4})
	if err != nil {
		tb.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "uvdiagram-ooc-bench-")
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(dir, "uv.snap")
	if err := built.SaveSnapshot(path); err != nil {
		tb.Fatal(err)
	}
	built.Close()
	db, err := uvdiagram.Open(path, &uvdiagram.Options{Pager: "mmap"})
	if err != nil {
		tb.Fatal(err)
	}
	os.RemoveAll(dir)
	oocFix = &outOfCoreFixture{db: db, queries: datagen.Queries(256, benchSide, 13)}
	return oocFix
}

// BenchmarkOutOfCoreBatchPNN is one whole batched-PNN round (256
// queries, 4 workers) served off the mapped snapshot.
func BenchmarkOutOfCoreBatchPNN(b *testing.B) {
	f := getOutOfCoreFixture(b)
	opts := &uvdiagram.BatchOptions{Workers: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.db.BatchNN(f.queries, opts); err != nil {
			b.Fatal(err)
		}
	}
}
