package rtree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
)

// specLeaf decodes a leaf page straight from the documented layout
// (uint16 count, then 36-byte <id, cx, cy, r, pointer> tuples), sharing
// no code with pager's decoders or the tree's read path.
func specLeaf(page []byte) []Item {
	items := make([]Item, binary.LittleEndian.Uint16(page))
	for i := range items {
		b := page[2+36*i:]
		f := func(off int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[off:])) }
		items[i] = Item{
			ID:  int32(binary.LittleEndian.Uint32(b)),
			MBC: geom.Circle{C: geom.Pt(f(4), f(12)), R: f(20)},
			Ptr: binary.LittleEndian.Uint64(b[28:]),
		}
	}
	return items
}

// checkLeafVisits: on every leaf the in-place visitor yields exactly
// the page's items, in page order, as does readLeaf, each for one
// accounted page read; the leaves together hold exactly want; and the
// lazy NN browse (which reads leaves through the visitor) pops KNN's
// sequence.
func checkLeafVisits(t *testing.T, what string, tr *Tree, want map[int32]Item) {
	t.Helper()
	pg := tr.Pager()
	seen := map[int32]Item{}
	var walk func(n *node)
	walk = func(n *node) {
		if !n.isLeaf() {
			for _, c := range n.children {
				walk(c)
			}
			return
		}
		spec := specLeaf(pg.Peek(n.page))
		before := pg.Reads()
		var visited []Item
		tr.visitLeaf(n, func(it Item) { visited = append(visited, it) })
		if got := pg.Reads() - before; got != 1 {
			t.Fatalf("%s: visitLeaf accounted %d page reads, want 1", what, got)
		}
		read := tr.readLeaf(n)
		if got := pg.Reads() - before; got != 2 {
			t.Fatalf("%s: readLeaf accounted %d page reads, want 1", what, got-1)
		}
		if len(visited) != len(spec) || len(read) != len(spec) || n.count != len(spec) {
			t.Fatalf("%s: page %d holds %d items; visitLeaf %d, readLeaf %d, node count %d",
				what, n.page, len(spec), len(visited), len(read), n.count)
		}
		for i, it := range spec {
			if visited[i] != it || read[i] != it {
				t.Fatalf("%s: page %d item %d = %+v; visitLeaf %+v, readLeaf %+v", what, n.page, i, it, visited[i], read[i])
			}
			seen[it.ID] = it
		}
	}
	walk(tr.hdr.Load().root)
	if len(seen) != len(want) || tr.Len() != len(want) {
		t.Fatalf("%s: leaves hold %d items, Len %d, want %d", what, len(seen), tr.Len(), len(want))
	}
	for id, it := range want {
		if seen[id] != it {
			t.Fatalf("%s: item %d = %+v, want %+v", what, id, seen[id], it)
		}
	}
	rng := rand.New(rand.NewSource(int64(len(want))))
	for trial := 0; trial < 10; trial++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		it := tr.NewNNIterator(q)
		for i, w := range tr.KNN(q, len(want)) {
			nb, ok := it.Next()
			if !ok || nb.Item != w.Item || math.Float64bits(nb.DistMin) != math.Float64bits(w.DistMin) {
				t.Fatalf("%s trial %d: neighbor %d = (%+v, %v, %v), KNN says (%+v, %v)",
					what, trial, i, nb.Item, nb.DistMin, ok, w.Item, w.DistMin)
			}
		}
		if _, ok := it.Next(); ok {
			t.Fatalf("%s trial %d: iterator yields more than %d items", what, trial, len(want))
		}
	}
}

// TestVisitLeafMatchesReadLeaf drives checkLeafVisits over a
// bulk-loaded tree, the same tree after inserts (split leaves, fresh
// pages) and after deletes (rewritten and emptied leaves).
func TestVisitLeafMatchesReadLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	items := randomItems(rng, 900, 1000)
	want := map[int32]Item{}
	for _, it := range items[:500] {
		want[it.ID] = it
	}
	tr := BulkLoad(items[:500], 12, pager.New(0))
	checkLeafVisits(t, "bulk-loaded", tr, want)

	for _, it := range items[500:] {
		tr.Insert(it)
		want[it.ID] = it
	}
	checkLeafVisits(t, "inserted-into", tr, want)

	for _, i := range rng.Perm(len(items))[:600] {
		if !tr.Delete(items[i].ID, items[i].MBC) {
			t.Fatalf("delete %d: not found", items[i].ID)
		}
		delete(want, items[i].ID)
	}
	checkLeafVisits(t, "deleted-from", tr, want)
	checkInvariants(t, tr)
}
