package uvdiagram

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
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
	cr, n := db.state().cr, db.state().cr.Len()
	if n != want.state().cr.Len() {
		t.Fatalf("%s: registry of %d, want %d", label, n, want.state().cr.Len())
	}
	ref := make([][]int32, n)
	for i := range n {
		set := cr.Of(int32(i))
		if !slices.Equal(set, want.state().cr.Of(int32(i))) {
			t.Fatalf("%s: Of(%d) = %v, want %v", label, i, set, want.state().cr.Of(int32(i)))
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
	for i := range db.state().cr.Len() {
		for _, j := range db.state().cr.Of(int32(i)) {
			fwd = append(fwd, [2]int32{int32(i), j})
		}
		for _, a := range db.state().cr.Dependents(int32(i)) {
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
// sequence — inserts (with the insert-repair's AddMember), deletes and
// Compact — runs in lockstep on the built and the opened databases. After every step each reverse map is the exact
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
			for i := range built.state().cr.Len() {
				if got, want := dbs[mode].state().cr.Of(int32(i)), built.state().cr.Of(int32(i)); !slices.Equal(got, want) {
					t.Fatalf("%s: %s Of(%d) = %v, built %v", label, mode, i, got, want)
				}
			}
		}
		assertServingEquivalent(t, label+"/mmap vs heap", dbs["mmap"], dbs["heap"], qs)
		assertServingEquivalent(t, label+"/mmap vs built", dbs["mmap"], built, qs)
	}
	// RNN dominates a comparison's cost, so it is compared at the end of each
	// round only.
	checkRNN := func(label string) {
		t.Helper()
		assertRNNEquivalent(t, label+"/mmap vs heap", dbs["mmap"], dbs["heap"], qs[:4])
		assertRNNEquivalent(t, label+"/mmap vs built", dbs["mmap"], built, qs[:4])
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
			for _, a := range built.state().cr.Dependents(o.ID) {
				if a < o.ID {
					repaired++
				}
			}
		}
		for range 6 {
			id := int32(rng.Intn(built.state().cr.Len()))
			if !built.Alive(id) {
				continue
			}
			step(fmt.Sprintf("round %d delete %d", round, id), func(db *DB) error { return db.Delete(id) })
		}
		checkRNN(fmt.Sprintf("round %d", round))
	}
	if repaired == 0 {
		t.Fatal("no insert reached an existing object's constraint set; the sequence does not exercise AddMember")
	}
	step("compact", func(db *DB) error { return db.Compact(ctx) })
	checkRNN("compact")
}

// TestSaveSnapshotDuringWrites: every writer holds the store lock
// exclusively and SaveSnapshot holds it shared, so a save taken while
// delete+insert pairs and Compact run beside it records the
// state between two writes. Each saved file must open with a reverse
// map that inverts its sets, and must answer like a fresh build over
// the objects it holds, bitwise. The reference is built from what the
// opened file returns for each live id, so an object that does not
// survive save and Open bit for bit makes the answers diverge.
func TestSaveSnapshotDuringWrites(t *testing.T) {
	cfg := datagen.Config{N: 200, Side: 2000, Diameter: 40, Seed: 17}
	opts := &Options{Shards: 4}
	all := datagen.Uniform(cfg)
	db, err := Build(all, cfg.Domain(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// The writer inserts these in order, so an object's id is its index
	// in all.
	rng := rand.New(rand.NewSource(18))
	for id := cfg.N; id < cfg.N+2000; id++ {
		all = append(all, NewObject(int32(id), rng.Float64()*cfg.Side, rng.Float64()*cfg.Side, cfg.Diameter/2, nil))
	}
	var compacts atomic.Int32
	db.OnMaintenance(func(ev MaintEvent) {
		if ev.Err == nil && ev.Kind == MaintCompact {
			compacts.Add(1)
		}
	})
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		ctx := context.Background()
		for i := 0; int(db.NextID()) < len(all); i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			switch i % 10 {
			case 4:
				err = db.Compact(ctx)
			default:
				if id := int32(rng.Intn(int(db.NextID()))); db.Alive(id) {
					err = db.Delete(id)
				}
				if err == nil {
					err = db.Insert(all[db.NextID()])
				}
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	stopWriter := sync.OnceFunc(func() { close(stop); <-done })
	defer stopWriter()

	qs := queryGrid(rand.New(rand.NewSource(19)), cfg.Side, 8)
	var states []int32
	for i := range 4 {
		label := fmt.Sprintf("save %d", i)
		path := filepath.Join(t.TempDir(), "db.uv6")
		if err := db.SaveSnapshot(path); err != nil {
			t.Fatal(err)
		}
		opened, err := Open(path, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		t.Cleanup(func() { opened.Close() })
		assertInverseRegistry(t, label, opened)
		n := opened.NextID()
		objs := slices.Clone(all[:n]) // a dead slot keeps its original: it reaches no answer
		var dead []int32
		for id := range n {
			if !opened.Alive(id) {
				dead = append(dead, id)
				continue
			}
			if objs[id], err = opened.Object(id); err != nil {
				t.Fatal(err)
			}
		}
		ref := survivorReference(t, objs, dead, cfg.Domain(), opts)
		assertServingEquivalent(t, label, opened, ref, qs)
		assertRNNEquivalent(t, label, opened, ref, qs[:4])
		states = append(states, n)
	}
	stopWriter()
	t.Logf("next ids at the saves: %v; %d compacts", states, compacts.Load())
	if states[0] == states[len(states)-1] || compacts.Load() == 0 {
		t.Fatalf("writer did not run beside the saves: next ids %v, %d compacts", states, compacts.Load())
	}
}
