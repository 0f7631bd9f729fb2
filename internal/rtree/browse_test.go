package rtree

import (
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
