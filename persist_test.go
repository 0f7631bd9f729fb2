package uvdiagram_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/datagen"
	"uvdiagram/internal/wire"
)

// reopen round-trips db through the one persistence path — SaveSnapshot
// to a temp file, Open with the heap pager — which preserves page
// images exactly, so callers compare the result bitwise.
func reopen(t testing.TB, db *uvdiagram.DB) *uvdiagram.DB {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.uv5")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	re, err := uvdiagram.Open(path, &uvdiagram.Options{Pager: "heap"})
	if err != nil {
		t.Fatal(err)
	}
	return re
}

// legacyPath names a committed fixture written by the last release that
// had a logical-stream writer (see testdata/legacy/README.md).
func legacyPath(name string) string { return filepath.Join("testdata", "legacy", name) }

// lifecycleDB rebuilds the database behind the v2-single (opts nil) and
// v3-equal4 (Shards: 4) fixtures: a churned population with a tombstone
// and insert slack.
func lifecycleDB(t testing.TB, opts *uvdiagram.Options) *uvdiagram.DB {
	t.Helper()
	cfg := datagen.Config{N: 50, Side: 2000, Diameter: 30, Seed: 4242}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(7); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(uvdiagram.NewObject(db.NextID(), 777, 888, 12, nil)); err != nil {
		t.Fatal(err)
	}
	return db
}

// medianDB builds the population behind the v4-median4 fixture with
// opts. The fixture's shards were cut at weighted medians of the object
// centers, a build cuts equal strips; answers do not depend on the cuts.
func medianDB(t testing.TB, opts *uvdiagram.Options) *uvdiagram.DB {
	t.Helper()
	cfg := datagen.Config{N: 80, Side: 2000, Diameter: 40, Seed: 13}
	db, err := uvdiagram.Build(datagen.Skewed(cfg, 250), cfg.Domain(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db, objs := buildSmallDB(t, 300, nil)
	loaded := reopen(t, db)
	if loaded.Len() != db.Len() {
		t.Fatalf("Len %d after load, want %d", loaded.Len(), db.Len())
	}
	if loaded.Domain() != db.Domain() {
		t.Fatalf("domain %v after load, want %v", loaded.Domain(), db.Domain())
	}
	if loaded.IndexStats() != db.IndexStats() {
		t.Fatalf("index stats differ: %+v vs %+v", loaded.IndexStats(), db.IndexStats())
	}
	assertEquivalent(t, db, loaded, 31)
	// Inserts keep working after a reload.
	if err := loaded.Insert(uvdiagram.NewObject(int32(len(objs)), 1000, 1000, 15, nil)); err != nil {
		t.Fatal(err)
	}
	answers, _, err := loaded.PNN(uvdiagram.Pt(1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range answers {
		if a.ID == int32(len(objs)) {
			found = true
		}
	}
	if !found {
		t.Error("object inserted after reload is not answered at its center")
	}
}

// openCorrupt writes data to a temp file and asserts the robustness
// contract on it: Open returns no DB and a *SnapshotError matching
// ErrCorruptSnapshot, under either pager.
func openCorrupt(t *testing.T, name string, data []byte) {
	t.Helper()
	p := filepath.Join(t.TempDir(), "corrupt")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"mmap", "heap"} {
		db, err := uvdiagram.Open(p, &uvdiagram.Options{Pager: mode})
		if err == nil {
			db.Close()
			t.Fatalf("%s/%s: corrupt file opened", name, mode)
		}
		if !errors.Is(err, uvdiagram.ErrCorruptSnapshot) {
			t.Fatalf("%s/%s: error %v does not match ErrCorruptSnapshot", name, mode, err)
		}
		var se *uvdiagram.SnapshotError
		if !errors.As(err, &se) {
			t.Fatalf("%s/%s: error %v is not a *SnapshotError", name, mode, err)
		}
	}
}

// TestLoadErrors sweeps truncations of every legacy file version:
// wherever the file ends — header, layout, objects, any shard's index
// stream or pages — Open errors with the typed corrupt-file error,
// never panics and never yields a partial DB.
func TestLoadErrors(t *testing.T) {
	for _, name := range []string{"v2-single.uvdb", "v3-equal4.uvdb", "v4-median4.uvdb", "v3-divergent4.uvdb", "v5-equal4.uv5"} {
		data, err := os.ReadFile(legacyPath(name))
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(data); cut += 1 + len(data)/97 {
			openCorrupt(t, fmt.Sprintf("%s[:%d]", name, cut), data[:cut])
		}
		openCorrupt(t, name+"[:len-1]", data[:len(data)-1])
	}
}

// TestLoadRejectsImplausibleShardLayout: a crafted v3 header with a
// huge gx×gy must error cleanly instead of dying in allocation (the
// product check alone would overflow past the bound).
func TestLoadRejectsImplausibleShardLayout(t *testing.T) {
	openCorrupt(t, "huge-grid", implausibleGridStream())
}

// implausibleGridStream is a v3 header claiming a 0xFFFFFFFF² grid.
func implausibleGridStream() []byte {
	var b wire.Buffer
	b.U32(0x55564442) // magic
	b.U32(3)          // sharded version
	for _, v := range []float64{0, 0, 1000, 1000} {
		b.F64(v)
	}
	b.U32(0xFFFFFFFF) // gx
	b.U32(0xFFFFFFFF) // gy
	return b.Bytes()
}

// TestStoredCutsPersist: the non-equal cuts of the v4-median4 stream
// survive a save as a snapshot and a reopen under either pager, a
// Compact and a delete+insert, and the reopened database answers
// bitwise like a one-shard build of the same objects throughout.
func TestStoredCutsPersist(t *testing.T) {
	legacy, err := uvdiagram.Open(legacyPath("v4-median4.uvdb"), nil)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := legacy.ShardCuts()
	if gx, gy := legacy.ShardGrid(); len(xs) != gx+1 || len(ys) != gy+1 || xs[1] == 1000 && ys[1] == 1000 {
		t.Fatalf("fixture cuts %v/%v on a %d×%d grid: want the stream's non-equal cuts", xs, ys, gx, gy)
	}
	path := filepath.Join(t.TempDir(), "median.uv5")
	if err := legacy.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"mmap", "heap"} {
		db, err := uvdiagram.Open(path, &uvdiagram.Options{Pager: mode})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		defer db.Close()
		ref := medianDB(t, nil)
		check := func(stage string, seed int64) {
			t.Helper()
			if xs2, ys2 := db.ShardCuts(); !slices.Equal(xs, xs2) || !slices.Equal(ys, ys2) {
				t.Fatalf("%s/%s: cuts %v/%v, want the stream's %v/%v", mode, stage, xs2, ys2, xs, ys)
			}
			assertEquivalent(t, ref, db, seed)
		}
		check("opened", 2)
		if err := db.Compact(context.Background()); err != nil {
			t.Fatal(err)
		}
		check("compacted", 3)
		for _, d := range []*uvdiagram.DB{db, ref} {
			if err := d.Delete(12); err != nil {
				t.Fatal(err)
			}
			if err := d.Insert(uvdiagram.NewObject(d.NextID(), 1200, 600, 15, nil)); err != nil {
				t.Fatal(err)
			}
		}
		check("churned", 5)
	}
}
