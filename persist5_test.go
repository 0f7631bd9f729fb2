package uvdiagram_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/datagen"
)

// saveSnapshotDB builds a database, snapshots it to a temp file and
// returns both.
func saveSnapshotDB(t testing.TB, n int, opts *uvdiagram.Options) (*uvdiagram.DB, string) {
	t.Helper()
	cfg := datagen.Config{N: n, Side: 2000, Diameter: 30, Seed: 42}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.uv5")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	return db, path
}

// assertEquivalent checks that two databases answer an identical query
// workload bitwise identically: PNN, TopKPNN, PossibleKNN and the
// batched PNN path. The paper's engine guarantees bitwise answers, and
// the snapshot path must not lose that.
func assertEquivalent(t *testing.T, want, got *uvdiagram.DB, seed int64) {
	t.Helper()
	assertEquivalentTol(t, want, got, seed, 0)
}

// assertEquivalentTol is assertEquivalent with a probability tolerance:
// the legacy stream reader re-normalizes pdf histograms on load, which
// may move probabilities by an ulp (snapshot paths use 0 — they
// preserve page images exactly).
func assertEquivalentTol(t *testing.T, want, got *uvdiagram.DB, seed int64, tol float64) {
	t.Helper()
	eq := func(a, b uvdiagram.Answer) bool {
		if tol == 0 {
			return a == b
		}
		d := a.Prob - b.Prob
		return a.ID == b.ID && d <= tol && d >= -tol
	}
	rng := rand.New(rand.NewSource(seed))
	qs := make([]uvdiagram.Point, 60)
	for i := range qs {
		qs[i] = uvdiagram.Pt(rng.Float64()*2000, rng.Float64()*2000)
	}
	for _, q := range qs {
		a1, _, err1 := want.PNN(q)
		a2, _, err2 := got.PNN(q)
		if err1 != nil || err2 != nil {
			t.Fatalf("PNN(%v): errs %v, %v", q, err1, err2)
		}
		if len(a1) != len(a2) {
			t.Fatalf("PNN(%v): %d answers vs %d", q, len(a1), len(a2))
		}
		for i := range a1 {
			if !eq(a1[i], a2[i]) {
				t.Fatalf("PNN(%v)[%d]: %v vs %v", q, i, a1[i], a2[i])
			}
		}
		k1, _, err1 := want.TopKPNN(q, 3)
		k2, _, err2 := got.TopKPNN(q, 3)
		if err1 != nil || err2 != nil {
			t.Fatalf("TopKPNN(%v): errs %v, %v", q, err1, err2)
		}
		if len(k1) != len(k2) {
			t.Fatalf("TopKPNN(%v): %d answers vs %d", q, len(k1), len(k2))
		}
		for i := range k1 {
			if !eq(k1[i], k2[i]) {
				t.Fatalf("TopKPNN(%v)[%d]: %v vs %v", q, i, k1[i], k2[i])
			}
		}
		n1, err1 := want.PossibleKNN(q, 4)
		n2, err2 := got.PossibleKNN(q, 4)
		if err1 != nil || err2 != nil {
			t.Fatalf("PossibleKNN(%v): errs %v, %v", q, err1, err2)
		}
		if len(n1) != len(n2) {
			t.Fatalf("PossibleKNN(%v): %d ids vs %d", q, len(n1), len(n2))
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatalf("PossibleKNN(%v)[%d]: %d vs %d", q, i, n1[i], n2[i])
			}
		}
	}
	bopts := &uvdiagram.BatchOptions{Workers: 4}
	b1, err1 := want.BatchNN(qs, bopts)
	b2, err2 := got.BatchNN(qs, bopts)
	if err1 != nil || err2 != nil {
		t.Fatalf("BatchNN: errs %v, %v", err1, err2)
	}
	for i := range b1 {
		if len(b1[i]) != len(b2[i]) {
			t.Fatalf("BatchNN[%d]: %d answers vs %d", i, len(b1[i]), len(b2[i]))
		}
		for j := range b1[i] {
			if !eq(b1[i][j], b2[i][j]) {
				t.Fatalf("BatchNN[%d][%d]: %v vs %v", i, j, b1[i][j], b2[i][j])
			}
		}
	}
}

// TestOpenSnapshotEquivalence is the acceptance property: a database
// served off a v5 snapshot — mmap-backed or heap-replayed — answers the
// whole query surface bitwise identically to the in-heap database that
// wrote it, across shard counts.
func TestOpenSnapshotEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, mode := range []string{"mmap", "heap"} {
			t.Run(map[int]string{1: "S1", 4: "S4"}[shards]+"/"+mode, func(t *testing.T) {
				db, path := saveSnapshotDB(t, 400, &uvdiagram.Options{Shards: shards})
				opened, err := uvdiagram.Open(path, &uvdiagram.Options{Pager: mode})
				if err != nil {
					t.Fatal(err)
				}
				defer opened.Close()
				if got := opened.PagerMode(); got != mode {
					t.Fatalf("PagerMode = %q, want %q", got, mode)
				}
				if opened.Len() != db.Len() || opened.Domain() != db.Domain() {
					t.Fatalf("shape: Len %d/%d, Domain %v/%v",
						opened.Len(), db.Len(), opened.Domain(), db.Domain())
				}
				if opened.IndexStats() != db.IndexStats() {
					t.Fatalf("index stats differ:\n%+v\n%+v", opened.IndexStats(), db.IndexStats())
				}
				assertEquivalent(t, db, opened, 7)
			})
		}
	}
}

// TestOpenSnapshotMutable checks that a snapshot-served database stays
// fully writable: inserts and deletes against the mmap-backed store go
// to the append-only heap tail, answers track the mutations, and a
// Vacuum afterwards does not disturb live data.
func TestOpenSnapshotMutable(t *testing.T) {
	db, path := saveSnapshotDB(t, 300, &uvdiagram.Options{Shards: 4})
	opened, err := uvdiagram.Open(path, nil) // default mmap
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()

	// Apply the same mutations to both engines.
	for _, eng := range []*uvdiagram.DB{db, opened} {
		if err := eng.Insert(uvdiagram.NewObject(eng.NextID(), 777, 777, 12, nil)); err != nil {
			t.Fatal(err)
		}
		if err := eng.Delete(3); err != nil {
			t.Fatal(err)
		}
	}
	opened.Vacuum()
	assertEquivalent(t, db, opened, 11)

	// Round-trip again: snapshotting the mutated, mmap-served database
	// must produce a valid snapshot of the post-mutation state.
	path2 := filepath.Join(t.TempDir(), "db2.uv5")
	if err := opened.SaveSnapshot(path2); err != nil {
		t.Fatal(err)
	}
	re, err := uvdiagram.Open(path2, &uvdiagram.Options{Pager: "heap"})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertEquivalent(t, db, re, 13)
}

// TestOpenClassicStream checks Open's legacy reader: every version ≤ 4
// stream an earlier release saved opens heap-served with the layout it
// was saved with and the answers of the database that was saved, and
// keeps mutating in step with it.
func TestOpenClassicStream(t *testing.T) {
	for _, fx := range []struct {
		name   string
		shards int
		want   *uvdiagram.DB
	}{
		{"v2-single.uvdb", 1, lifecycleDB(t, nil)},
		{"v3-equal4.uvdb", 4, lifecycleDB(t, &uvdiagram.Options{Shards: 4})},
		{"v4-median4.uvdb", 4, medianDB(t)},
	} {
		opened, err := uvdiagram.Open(legacyPath(fx.name), nil)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		if opened.PagerMode() != "heap" {
			t.Fatalf("%s: legacy stream served as %q", fx.name, opened.PagerMode())
		}
		if opened.Shards() != fx.shards || opened.Len() != fx.want.Len() {
			t.Fatalf("%s: %d shards, %d live; want %d, %d",
				fx.name, opened.Shards(), opened.Len(), fx.shards, fx.want.Len())
		}
		assertEquivalentTol(t, fx.want, opened, 17, 1e-9)
		for _, d := range []*uvdiagram.DB{fx.want, opened} {
			if err := d.Delete(12); err != nil {
				t.Fatalf("%s: %v", fx.name, err)
			}
			if err := d.Insert(uvdiagram.NewObject(d.NextID(), 1200, 600, 15, nil)); err != nil {
				t.Fatalf("%s: %v", fx.name, err)
			}
		}
		assertEquivalentTol(t, fx.want, opened, 19, 1e-9)
		// Saving a legacy-opened database writes the current format.
		assertEquivalent(t, opened, reopen(t, opened), 23)
	}
}

// TestSnapshotResaveByteIdentical guards the file format: a snapshot
// opened into the heap and saved again reproduces the input file byte
// for byte, so nothing in the write or read path re-encodes a field
// differently from how it was stored.
func TestSnapshotResaveByteIdentical(t *testing.T) {
	for _, shards := range []int{1, 4} {
		_, path := saveSnapshotDB(t, 200, &uvdiagram.Options{Shards: shards})
		opened, err := uvdiagram.Open(path, &uvdiagram.Options{Pager: "heap"})
		if err != nil {
			t.Fatal(err)
		}
		resaved := filepath.Join(t.TempDir(), "resaved.uv5")
		if err := opened.SaveSnapshot(resaved); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(resaved)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("shards=%d: re-saved snapshot differs from its input (%d vs %d bytes)", shards, len(got), len(want))
		}
	}
}

// TestOpenSnapshotCorrupt asserts the robustness contract: truncated or
// bit-flipped database files of any version yield a typed error
// matching ErrCorruptSnapshot and never a partially constructed DB.
func TestOpenSnapshotCorrupt(t *testing.T) {
	_, path := saveSnapshotDB(t, 120, &uvdiagram.Options{Shards: 2})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		openCorrupt(t, name, mutate(append([]byte(nil), data...)))
	}
	check("empty", func(b []byte) []byte { return nil })
	check("truncated-meta", func(b []byte) []byte { return b[:40] })
	check("truncated-pages", func(b []byte) []byte { return b[:len(b)-4096] })
	check("meta-overrun", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[8:], uint64(len(b))) // metaLen past EOF
		return b
	})
	check("bad-object-count", func(b []byte) []byte {
		// n lives right after domain (32) + gx/gy (8) + cuts. With
		// shards=2: gx=2, gy=1 → xs 3×8, ys 2×8 = 40 bytes of cuts.
		off := 16 + 32 + 8 + 40
		binary.LittleEndian.PutUint32(b[off:], 1<<30)
		return b
	})
	check("bad-shard-grid", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[16+32:], 0xFFFFFFFF)
		return b
	})
	check("bad-magic", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[0:], 0xDEADBEEF)
		return b
	})
	check("bad-version", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[4:], 99)
		return b
	})

	// The same damage to a legacy stream gets the same typed error.
	data, err = os.ReadFile(legacyPath("v3-equal4.uvdb"))
	if err != nil {
		t.Fatal(err)
	}
	check("legacy-bad-magic", func(b []byte) []byte { return append([]byte{1, 2, 3, 4}, b[4:]...) })
	for _, cut := range []int{6, 20, 60, len(data) / 2, len(data) - 2} {
		check(fmt.Sprintf("legacy-truncated-%d", cut), func(b []byte) []byte { return b[:cut] })
	}
	check("legacy-bad-shard-grid", func([]byte) []byte { return implausibleGridStream() })
	check("legacy-bad-object-count", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[8+32+8:], 1<<30) // n follows header, domain, gx/gy
		return b
	})
	check("legacy-bad-registry-id", func(b []byte) []byte {
		// The last four bytes are an object id in the last shard's
		// last leaf list.
		binary.LittleEndian.PutUint32(b[len(b)-4:], 1<<20)
		return b
	})

	// A missing file is an error too (not a corrupt one).
	if _, err := uvdiagram.Open(filepath.Join(t.TempDir(), "missing"), nil); err == nil {
		t.Fatal("opening a missing file succeeded")
	}
}

// FuzzOpenSnapshot feeds arbitrary bytes (seeded with a real snapshot
// and a legacy stream) through Open in heap mode: whatever the corruption, Open must return
// an error or a servable DB — never panic, never hang.
func FuzzOpenSnapshot(f *testing.F) {
	_, path := saveSnapshotDB(f, 60, nil)
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:16])
	f.Add([]byte{})
	trunc := append([]byte(nil), data[:len(data)/2]...)
	f.Add(trunc)
	// A legacy stream, so the fuzzer explores both branches of Open.
	legacy, err := os.ReadFile(legacyPath("v2-single.uvdb"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Fuzz(func(t *testing.T, b []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.uv5")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Skip()
		}
		db, err := uvdiagram.Open(p, &uvdiagram.Options{Pager: "heap"})
		if err != nil {
			return
		}
		// A structurally valid mutation of the seed must still serve.
		if _, _, err := db.PNN(uvdiagram.Pt(1000, 1000)); err != nil {
			t.Logf("PNN on fuzzed-but-openable snapshot: %v", err)
		}
		db.Close()
	})
}
