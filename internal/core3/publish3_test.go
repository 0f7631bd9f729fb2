package core3

import (
	"reflect"
	"testing"

	"uvdiagram/internal/agrid"
	"uvdiagram/internal/geom3"
	"uvdiagram/internal/wire"
)

// The octree runs the 2D UV-index's write pass (agrid), so it carries
// the same publication invariants; these mirror core's tests of the
// same names.

// TestPublishedTreeHasNoFreshNodes checks the grid's publication
// invariants after every way an octree gets a tree: a build, the
// reference build and a load.
func TestPublishedTreeHasNoFreshNodes(t *testing.T) {
	objs := randObjs3(150, 100, 3, 31)
	opts := DefaultOptions3()
	opts.PageSize = 512 // splits at this scale
	ix, stats, err := Build3(objs, geom3.Cube(100), opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Index.NonLeaf == 0 {
		t.Fatal("the octree never split")
	}
	ref, _, err := Build3Reference(objs, geom3.Cube(100), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf wire.Buffer
	ix.Save(&buf)
	loaded, err := LoadOctIndex(wire.NewReader(buf.Bytes()), objs)
	if err != nil {
		t.Fatal(err)
	}
	for label, x := range map[string]*OctIndex{"build": ix, "reference": ref, "load": loaded} {
		if err := x.g.Verify(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
}

// TestBuildEqualsIncrementalGrowth: an octree built in one pass equals
// one grown from an empty tree by one published pass per object — the
// same leaf id lists in walk order, the same shape and pages.
func TestBuildEqualsIncrementalGrowth(t *testing.T) {
	objs := randObjs3(150, 100, 3, 32)
	opts := DefaultOptions3()
	opts.PageSize = 512
	built, _, err := Build3(objs, geom3.Cube(100), opts)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := newOctIndex(objs, geom3.Cube(100), opts)
	if err != nil {
		t.Fatal(err)
	}
	copy(grown.crOf, built.crOf)
	for id := range objs {
		p, root := grown.g.Begin()
		p.Install(p.Insert(int32(id), root))
		if err := grown.g.Verify(); err != nil {
			t.Fatalf("after object %d: %v", id, err)
		}
	}

	a, b := built.Stats(), grown.Stats()
	if a.NonLeaf == 0 || a != b {
		t.Fatalf("one-pass build %+v, grown %+v", a, b)
	}
	leaves := func(ix *OctIndex) [][]int32 {
		var out [][]int32
		ix.g.Leaves(nil, func(_ geom3.Box, _ int, leaf *agrid.Node) { out = append(out, leaf.IDs()) })
		return out
	}
	if !reflect.DeepEqual(leaves(built), leaves(grown)) {
		t.Fatal("leaf id lists differ between the one-pass build and the grown octree")
	}
}
