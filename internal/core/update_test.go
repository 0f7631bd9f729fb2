package core

import (
	"math/rand"
	"reflect"
	"testing"

	"uvdiagram/internal/agrid"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/prob"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
	"uvdiagram/internal/wire"
)

// TestInsertLiveCorrectness: build over a prefix of a dataset, insert
// the rest live, and verify PNN answers equal brute force over the full
// dataset — the soundness argument of update.go in action.
func TestInsertLiveCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	domain := geom.Square(1000)
	objs := randObjects(rng, 160, 1000, 20)
	prefix := objs[:120]

	st, err := uncertain.NewStore(prefix, pager.New(uncertain.ObjectPageBytes))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultBuildOptions()
	opts.SeedK = 60
	opts.Index.PageSize = 512
	tree := BuildHelperRTree(st, opts.Fanout)
	ix, _, err := Build(st, domain, tree, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Live-insert the remaining objects.
	for _, o := range objs[120:] {
		if err := st.Append(o); err != nil {
			t.Fatal(err)
		}
		tree.Insert(treeItem(st, o))
		res := DeriveCRObjects(tree, o, st.All(), domain, opts.SeedK, opts.SeedSectors, opts.RegionSamples)
		insertLive(t, ix, o.ID, res.CR)
	}

	for k := 0; k < 80; k++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		answers, _, err := ix.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		want := prob.AnswerSet(objs, q)
		if len(answers) != len(want) {
			t.Fatalf("query %v: %d answers after live inserts, brute force %d",
				q, len(answers), len(want))
		}
		for i, a := range answers {
			if int(a.ID) != want[i] {
				t.Fatalf("query %v: ids %v, want %v", q, answers, want)
			}
		}
	}
}

func treeItem(st *uncertain.Store, o uncertain.Object) rtree.Item {
	return rtree.Item{ID: o.ID, MBC: o.Region, Ptr: uint64(st.PageOf(o.ID))}
}

// insertLive records object id's constraint set in a standalone index's
// registry and inserts it into the leaf lists — the two layers a live
// insert composes (the object must already be in the store).
func insertLive(t testing.TB, ix *UVIndex, id int32, crIDs []int32) {
	t.Helper()
	if err := ix.CR().Append(id, crIDs); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.InsertLeafLive(id); err != nil {
		t.Fatal(err)
	}
}

func TestInsertLiveValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(607))
	domain := geom.Square(1000)
	objs := randObjects(rng, 50, 1000, 20)
	st := makeStore(t, objs)
	opts := DefaultBuildOptions()
	opts.SeedK = 30
	ix, _, err := Build(st, domain, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Ids not in the store.
	for _, id := range []int32{50, 99} {
		if _, err := ix.InsertLeafLive(id); err == nil {
			t.Errorf("id %d missing from store accepted", id)
		}
	}
	// In the store, but with no constraint set recorded.
	extra := randObjects(rng, 1, 1000, 20)[0]
	extra.ID = 50
	if err := st.Append(extra); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.InsertLeafLive(50); err == nil {
		t.Error("id without a recorded constraint set accepted")
	}
	// A constraint set out of dense-id order.
	if err := ix.CR().Append(51, nil); err == nil {
		t.Error("out-of-order id accepted")
	}
}

// TestInsertLiveFlushesPages: after a live insert, the leaf that covers
// the object's own center must list it on disk, not only in memory.
func TestInsertLiveFlushesPages(t *testing.T) {
	rng := rand.New(rand.NewSource(611))
	domain := geom.Square(1000)
	objs := randObjects(rng, 80, 1000, 20)
	st := makeStore(t, objs[:79])
	opts := DefaultBuildOptions()
	opts.SeedK = 40
	opts.Index.PageSize = 512
	tree := BuildHelperRTree(st, opts.Fanout)
	ix, _, err := Build(st, domain, tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := objs[79]
	if err := st.Append(o); err != nil {
		t.Fatal(err)
	}
	tree.Insert(treeItem(st, o))
	res := DeriveCRObjects(tree, o, st.All(), domain, opts.SeedK, opts.SeedSectors, opts.RegionSamples)
	insertLive(t, ix, o.ID, res.CR)
	// Query at the new object's center: it must be an answer, read from
	// the on-disk pages.
	answers, _, err := ix.PNN(o.Region.C)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range answers {
		if a.ID == o.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("live-inserted object %d not answered at its own center (answers %v)", o.ID, answers)
	}
}

// checkPublished checks the grid's publication invariants on ix's
// published tree (agrid.Grid.Verify).
func checkPublished(t *testing.T, label string, ix *UVIndex) {
	t.Helper()
	if err := ix.g.Verify(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestPublishedTreeHasNoFreshNodes checks the publication invariant of
// the write pass after every way an index gets a tree: a build, a
// legacy load, a snapshot open, live inserts and delete surgery.
func TestPublishedTreeHasNoFreshNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(617))
	domain := geom.Square(1000)
	objs := randObjects(rng, 200, 1000, 20)
	st := makeStore(t, objs[:160])
	opts := DefaultBuildOptions()
	opts.SeedK = 60
	opts.Index.PageSize = 512 // small pages: splits during build and during live surgery
	tree := BuildHelperRTree(st, opts.Fanout)
	ix, _, err := Build(st, domain, tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkPublished(t, "build", ix)

	var buf wire.Buffer
	ix.Save(&buf)
	loaded, err := LoadUVIndex(wire.NewReader(buf.Bytes()), st)
	if err != nil {
		t.Fatal(err)
	}
	checkPublished(t, "load", loaded)

	manifest, pages := ix.SnapshotManifest()
	pg := pager.New(opts.Index.PageSize)
	for _, pid := range pages {
		pg.Alloc(ix.Pager().Read(pid))
	}
	opened, err := OpenUVIndexSnapshot(manifest, st, ix.CR(), pg)
	if err != nil {
		t.Fatal(err)
	}
	checkPublished(t, "snapshot open", opened)

	nonleaf := ix.Stats().NonLeaf
	sc := NewDeriveScratch()
	for _, o := range objs[160:] {
		if err := st.Append(o); err != nil {
			t.Fatal(err)
		}
		tree.Insert(treeItem(st, o))
		insertLive(t, ix, o.ID, DeriveCR(tree, o, st.Dense(), domain, opts.SeedK, opts.SeedSectors, opts.RegionSamples, sc))
		checkPublished(t, "InsertLeafLive", ix)
	}

	// Delete surgery: strip each victim from its dependents (a subset of
	// live constraints is a sound representation) and reinsert them.
	for _, v := range []int32{3, 77, 150, 190} {
		affected := ix.CR().AffectedBy([]int32{v})
		for _, a := range affected {
			ix.CR().Strip(a, map[int32]bool{v: true})
		}
		ix.CR().Drop([]int32{v})
		if _, err := ix.RemoveAndReinsertLive(append([]int32{v}, affected...), affected); err != nil {
			t.Fatal(err)
		}
		checkPublished(t, "RemoveAndReinsertLive", ix)
	}
	if ix.Stats().NonLeaf == nonleaf {
		t.Error("no live split happened; the live passes never created internal nodes")
	}
}

// TestBuildEqualsIncrementalGrowth: an index built in one pass equals
// one grown from an empty tree by one InsertLeafLive per object — the
// same leaf id lists in walk order, the same non-leaf count and pages.
func TestBuildEqualsIncrementalGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(619))
	domain := geom.Square(1000)
	objs := randObjects(rng, 200, 1000, 20)
	st := makeStore(t, objs)
	opts := DefaultBuildOptions()
	opts.SeedK = 60
	opts.Index.PageSize = 512
	sets, _, err := DeriveCRSets(st, domain, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	cr := NewCRState(sets)
	built, _, err := BuildRegionCR(st, domain, cr, 1, opts.Index)
	if err != nil {
		t.Fatal(err)
	}

	grown, err := newIndex(st, domain, opts.Index, cr, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, root := grown.g.Begin()
	p.Install(root)
	for id := int32(0); int(id) < st.Len(); id++ {
		if _, err := grown.InsertLeafLive(id); err != nil {
			t.Fatal(err)
		}
	}

	a, b := built.Stats(), grown.Stats()
	if a.NonLeaf == 0 || a.NonLeaf != b.NonLeaf || a.Pages != b.Pages || a != b {
		t.Fatalf("one-pass build %+v, grown %+v", a, b)
	}
	leaves := func(ix *UVIndex) [][]int32 {
		var out [][]int32
		ix.g.Leaves(nil, func(_ geom.Rect, _ int, leaf *agrid.Node) { out = append(out, leaf.IDs()) })
		return out
	}
	if !reflect.DeepEqual(leaves(built), leaves(grown)) {
		t.Fatal("leaf id lists differ between the one-pass build and the grown index")
	}
}
