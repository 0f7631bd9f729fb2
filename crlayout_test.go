package uvdiagram

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"uvdiagram/internal/datagen"
)

// assertCarvedRegistry checks db's registry against the layout a fresh
// Build or Open gives it: every recorded set equals want's element for
// element, every reverse list equals the one appending dependents in
// ascending id builds, and every list is a window with cap == len, so
// that no append can write into a neighbour's. Sets derived by Build
// are the reference and own their arrays, so only a decoded registry
// (carved) must have cap == len on its sets.
func assertCarvedRegistry(t *testing.T, label string, db, want *DB, carved bool) {
	t.Helper()
	cr, n := db.cr, db.cr.Len()
	if n != want.cr.Len() {
		t.Fatalf("%s: registry of %d, want %d", label, n, want.cr.Len())
	}
	ref := make([][]int32, n)
	for i := range n {
		set := cr.Of(int32(i))
		if !slices.Equal(set, want.cr.Of(int32(i))) {
			t.Fatalf("%s: Of(%d) = %v, want %v", label, i, set, want.cr.Of(int32(i)))
		}
		if carved && cap(set) != len(set) {
			t.Fatalf("%s: Of(%d) has cap %d > len %d", label, i, cap(set), len(set))
		}
		for _, j := range set {
			ref[j] = append(ref[j], int32(i))
		}
	}
	for j := range n {
		deps := cr.Dependents(int32(j))
		if !slices.Equal(deps, ref[j]) {
			t.Fatalf("%s: Dependents(%d) = %v, want %v", label, j, deps, ref[j])
		}
		if cap(deps) != len(deps) {
			t.Fatalf("%s: Dependents(%d) has cap %d > len %d", label, j, cap(deps), len(deps))
		}
	}
}

// assertInverseRegistry checks the registry's own invariant: the
// reverse map is exactly the multiset inverse of the recorded sets.
func assertInverseRegistry(t *testing.T, label string, db *DB) {
	t.Helper()
	var fwd, rev [][2]int32
	for i := range db.cr.Len() {
		for _, j := range db.cr.Of(int32(i)) {
			fwd = append(fwd, [2]int32{int32(i), j})
		}
		for _, a := range db.cr.Dependents(int32(i)) {
			rev = append(rev, [2]int32{a, int32(i)})
		}
	}
	cmp := func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	}
	slices.SortFunc(fwd, cmp)
	slices.SortFunc(rev, cmp)
	if !slices.Equal(fwd, rev) {
		t.Fatalf("%s: reverse map (%d pairs) is not the inverse of the recorded sets (%d pairs)", label, len(rev), len(fwd))
	}
}

// TestCRLayoutMutationSafety: Build and Open (heap and mmap) lay the
// registry out as carved windows with cap == len, equal to the
// append-built registry element for element. Then one seeded mutation
// sequence — inserts (with the insert-repair's AddMember), deletes,
// CompactShard, Compact and Reshard — runs in lockstep on the built and
// the opened databases. After every step each reverse map is the exact
// inverse of its sets, the recorded sets agree across all three and the
// answers are equal, so no append ever wrote into a neighbour's window.
func TestCRLayoutMutationSafety(t *testing.T) {
	cfg := datagen.Config{N: 300, Side: 2000, Diameter: 30, Seed: 61}
	built, err := Build(datagen.Uniform(cfg), cfg.Domain(), &Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.uv6")
	if err := built.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	assertCarvedRegistry(t, "build", built, built, false)
	dbs := map[string]*DB{"built": built}
	for _, mode := range []string{"mmap", "heap"} {
		opened, err := Open(path, &Options{Pager: mode})
		if err != nil {
			t.Fatal(err)
		}
		defer opened.Close()
		assertCarvedRegistry(t, "open/"+mode, opened, built, true)
		dbs[mode] = opened
	}

	rng := rand.New(rand.NewSource(62))
	qs := queryGrid(rng, cfg.Side, 24)
	ctx := context.Background()
	step := func(label string, f func(db *DB) error) {
		t.Helper()
		for name, db := range dbs {
			if err := f(db); err != nil {
				t.Fatalf("%s on %s: %v", label, name, err)
			}
		}
		for name, db := range dbs {
			assertInverseRegistry(t, label+"/"+name, db)
		}
		for _, mode := range []string{"mmap", "heap"} {
			for i := range built.cr.Len() {
				if got, want := dbs[mode].cr.Of(int32(i)), built.cr.Of(int32(i)); !slices.Equal(got, want) {
					t.Fatalf("%s: %s Of(%d) = %v, built %v", label, mode, i, got, want)
				}
			}
		}
		assertServingEquivalent(t, label+"/mmap vs heap", dbs["mmap"], dbs["heap"], qs)
		assertServingEquivalent(t, label+"/mmap vs built", dbs["mmap"], built, qs)
	}
	// RNN dominates a comparison's cost, so it is compared at the end of each
	// round only. It integrates the in-memory pdfs, and Open's are
	// re-normalized from the stored bars, so across Open it agrees only to
	// an ulp; between the two opened databases it is bitwise.
	checkRNN := func(label string) {
		t.Helper()
		assertRNNEquivalent(t, label+"/mmap vs heap", dbs["mmap"], dbs["heap"], qs[:4], 0)
		assertRNNEquivalent(t, label+"/mmap vs built", dbs["mmap"], built, qs[:4], 1e-12)
	}
	repaired := 0 // constraint sets of existing objects that gained an inserted id
	for round := range 2 {
		for range 8 {
			// Each insert lands beside an existing object, so its cell
			// cuts into its neighbours' and the insert-repair records it
			// in their sets.
			c := built.store.At(rng.Intn(cfg.N)).Region.C
			o := NewObject(built.NextID(), c.X+40*rng.Float64()-20, c.Y+40*rng.Float64()-20, 5+10*rng.Float64(), nil)
			step(fmt.Sprintf("round %d insert %d", round, o.ID), func(db *DB) error { return db.Insert(o) })
			for _, a := range built.cr.Dependents(o.ID) {
				if a < o.ID {
					repaired++
				}
			}
		}
		for range 6 {
			id := int32(rng.Intn(built.cr.Len()))
			if !built.Alive(id) {
				continue
			}
			step(fmt.Sprintf("round %d delete %d", round, id), func(db *DB) error { return db.Delete(id) })
		}
		shard := rng.Intn(4)
		step(fmt.Sprintf("round %d compact shard %d", round, shard), func(db *DB) error { return db.CompactShard(ctx, shard) })
		checkRNN(fmt.Sprintf("round %d", round))
	}
	if repaired == 0 {
		t.Fatal("no insert reached an existing object's constraint set; the sequence does not exercise AddMember")
	}
	step("compact", func(db *DB) error { return db.Compact(ctx) })
	step("reshard", func(db *DB) error { return db.Reshard(ctx) })
	checkRNN("reshard")
}
