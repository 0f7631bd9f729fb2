package rtree

import (
	"math"
	"math/rand"
	"testing"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
)

func browseTree(t *testing.T, n int, seed int64) *Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			ID:  int32(i),
			MBC: geom.Circle{C: geom.Pt(rng.Float64()*1000, rng.Float64()*1000), R: rng.Float64() * 20},
			Ptr: uint64(i),
		}
	}
	return BulkLoad(items, 16, pager.New(pager.DefaultPageSize))
}

// TestNNIteratorMatchesKNN: for every prefix length, the iterator's pop
// sequence must be identical — ids, ties and all — to the materialized
// KNN result. core's seed-selection bitwise-equivalence bar rests on this.
func TestNNIteratorMatchesKNN(t *testing.T) {
	for _, n := range []int{1, 7, 64, 500} {
		tree := browseTree(t, n, int64(n))
		for trial := 0; trial < 20; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			want := tree.KNN(q, n)
			it := tree.NewNNIterator(q)
			for i, w := range want {
				nb, ok := it.Next()
				if !ok {
					t.Fatalf("n=%d trial=%d: iterator exhausted at %d, want %d", n, trial, i, len(want))
				}
				if nb.Item.ID != w.Item.ID || nb.DistMin != w.DistMin {
					t.Fatalf("n=%d trial=%d: neighbor %d = (%d, %v), KNN says (%d, %v)",
						n, trial, i, nb.Item.ID, nb.DistMin, w.Item.ID, w.DistMin)
				}
			}
			if _, ok := it.Next(); ok {
				t.Fatalf("n=%d trial=%d: iterator yields more than %d items", n, trial, n)
			}
		}
	}
}

// TestNNIteratorOrderProperty: on random trees full of ties —
// duplicated objects, coincident centers with different radii, and
// queries on object centers, inside regions and at random — the
// iterator's pop sequence equals KNN(q, k) for every k ≤ n, bit for bit
// (id, pointer, region and distmin), and never decreases in distmin.
// Trees are both bulk-loaded and grown by Insert, at two fanouts.
func TestNNIteratorOrderProperty(t *testing.T) {
	same := func(a, b Neighbor) bool {
		return a.Item.ID == b.Item.ID && a.Item.Ptr == b.Item.Ptr &&
			math.Float64bits(a.DistMin) == math.Float64bits(b.DistMin) &&
			math.Float64bits(a.Item.MBC.C.X) == math.Float64bits(b.Item.MBC.C.X) &&
			math.Float64bits(a.Item.MBC.C.Y) == math.Float64bits(b.Item.MBC.C.Y) &&
			math.Float64bits(a.Item.MBC.R) == math.Float64bits(b.Item.MBC.R)
	}
	for trial := 0; trial < 24; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 1 + rng.Intn(180)
		items := make([]Item, 0, n)
		for len(items) < n {
			id := int32(len(items))
			switch k := rng.Intn(4); {
			case k == 0 && len(items) > 0: // duplicate of an earlier object
				it := items[rng.Intn(len(items))]
				items = append(items, Item{ID: id, MBC: it.MBC, Ptr: uint64(id)})
			case k == 1 && len(items) > 0: // coincident center, other radius
				it := items[rng.Intn(len(items))]
				items = append(items, Item{ID: id, MBC: geom.Circle{C: it.MBC.C, R: float64(rng.Intn(4)) * 5}, Ptr: uint64(id)})
			default: // on a coarse grid, so distances tie too
				c := geom.Pt(float64(rng.Intn(20))*50, float64(rng.Intn(20))*50)
				items = append(items, Item{ID: id, MBC: geom.Circle{C: c, R: float64(rng.Intn(4)) * 5}, Ptr: uint64(id)})
			}
		}
		fanout := []int{4, 16}[trial%2]
		var tree *Tree
		if trial%4 < 2 {
			tree = BulkLoad(items, fanout, pager.New(pager.DefaultPageSize))
		} else {
			tree = New(fanout, pager.New(pager.DefaultPageSize))
			for _, it := range items {
				tree.Insert(it)
			}
		}
		queries := []geom.Point{
			items[rng.Intn(n)].MBC.C, // on a center: a run of zero distmins
			items[rng.Intn(n)].MBC.C.Add(geom.Pt(1, 1)),
			geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
			geom.Pt(-200, 500), // outside every object
		}
		for qi, q := range queries {
			var pops []Neighbor
			for it := tree.NewNNIterator(q); ; {
				nb, ok := it.Next()
				if !ok {
					break
				}
				if len(pops) > 0 && nb.DistMin < pops[len(pops)-1].DistMin {
					t.Fatalf("trial %d query %d: pop %d distmin %v after %v", trial, qi, len(pops), nb.DistMin, pops[len(pops)-1].DistMin)
				}
				pops = append(pops, nb)
			}
			if len(pops) != n {
				t.Fatalf("trial %d query %d: %d pops, %d items", trial, qi, len(pops), n)
			}
			for k := 1; k <= n; k++ {
				for i, w := range tree.KNN(q, k) {
					if !same(pops[i], w) {
						t.Fatalf("trial %d query %d: KNN(%d)[%d] = %+v, iterator popped %+v", trial, qi, k, i, w, pops[i])
					}
				}
			}
		}
	}
}

// TestNNIteratorReset: a reset iterator reuses its heap and browses the
// new query exactly like a fresh one.
func TestNNIteratorReset(t *testing.T) {
	tree := browseTree(t, 200, 9)
	var it NNIterator
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		it.Reset(tree, q)
		// Consume a random prefix, then reset again mid-browse.
		for i := 0; i < trial*7; i++ {
			it.Next()
		}
		it.Reset(tree, q)
		want := tree.KNN(q, 50)
		for i, w := range want {
			nb, ok := it.Next()
			if !ok || nb.Item.ID != w.Item.ID {
				t.Fatalf("trial %d: prefix %d diverges after Reset", trial, i)
			}
		}
	}
}

// TestCenterRangeFuncMatchesCenterRange: the visitor form must preserve
// the collection order of CenterRange (I-pruning's candidate order
// feeds the derivation equivalence bar).
func TestCenterRangeFuncMatchesCenterRange(t *testing.T) {
	tree := browseTree(t, 300, 4)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		c := geom.Circle{C: geom.Pt(rng.Float64()*1000, rng.Float64()*1000), R: rng.Float64() * 400}
		want := tree.CenterRange(c)
		var got []Item
		tree.CenterRangeFunc(c, func(it Item) { got = append(got, it) })
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d items via visitor, %d via CenterRange", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("trial %d: item %d = %d, want %d", trial, i, got[i].ID, want[i].ID)
			}
		}
	}
}

// TestNearFuncMatchesBruteForce: NearFunc visits exactly the items
// whose distmin from q is within the radius, and LeafIDs partitions the
// tree's items into one group per leaf.
func TestNearFuncMatchesBruteForce(t *testing.T) {
	tree := browseTree(t, 300, 6)
	var all []Item
	tree.Search(tree.Bounds(), func(it Item) bool { all = append(all, it); return true })
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 25; trial++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		radius := rng.Float64() * 300
		want := map[int32]bool{}
		for _, it := range all {
			if max(0, q.Dist(it.MBC.C)-it.MBC.R) <= radius {
				want[it.ID] = true
			}
		}
		got := map[int32]bool{}
		tree.NearFunc(q, radius, func(it Item) {
			if got[it.ID] {
				t.Fatalf("trial %d: item %d visited twice", trial, it.ID)
			}
			got[it.ID] = true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d items visited, want %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: item %d missed", trial, id)
			}
		}
	}
	seen := map[int32]bool{}
	leaves := tree.LeafIDs()
	if len(leaves) != tree.LeafCount() {
		t.Fatalf("%d leaf groups, %d leaves", len(leaves), tree.LeafCount())
	}
	for _, ids := range leaves {
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("id %d in two leaves", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != len(all) {
		t.Fatalf("leaves hold %d ids, the tree %d items", len(seen), len(all))
	}
}
