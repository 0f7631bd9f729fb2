package rtree

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
)

// referenceCandidates is the two-traversal form of the branch-and-prune
// walk of [14]: phase 1 on container/heap, phase 2 a second recursive
// descent pruned by the bound. candidates must return the same
// candidate set, the same bound bitwise and the same leaf reads.
func referenceCandidates(t *Tree, q geom.Point, k int, read func(*node) []Item) (cands []Item, bound float64) {
	hd := t.hdr.Load()
	if hd.size == 0 || k <= 0 {
		return nil, math.Inf(1)
	}
	if k > hd.size {
		k = hd.size
	}
	// Phase 1: the k smallest distmax values via best-first traversal
	// with a bounded max-heap.
	worst := func(h []float64) float64 {
		if len(h) < k {
			return math.Inf(1)
		}
		return h[0]
	}
	var top []float64 // max-heap of the k smallest distmax seen
	push := func(d float64) {
		if len(top) < k {
			top = append(top, d)
			up(top)
			return
		}
		if d < top[0] {
			top[0] = d
			down(top)
		}
	}
	h := &pq{{key: hd.root.rect.MinDist(q), node: hd.root}}
	for h.Len() > 0 {
		e := heap.Pop(h).(pqEntry)
		if e.key > worst(top) {
			break
		}
		if e.node.isLeaf() {
			for _, it := range read(e.node) {
				push(q.Dist(it.MBC.C) + it.MBC.R)
			}
			continue
		}
		for _, c := range e.node.children {
			if kk := c.rect.MinDist(q); kk <= worst(top) {
				heap.Push(h, pqEntry{key: kk, node: c})
			}
		}
	}
	bound = worst(top)

	// Phase 2: collect all objects with distmin ≤ bound.
	var walk func(n *node)
	walk = func(n *node) {
		if n.rect.MinDist(q) > bound {
			return
		}
		if n.isLeaf() {
			for _, it := range read(n) {
				if math.Max(0, q.Dist(it.MBC.C)-it.MBC.R) <= bound {
					cands = append(cands, it)
				}
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(hd.root)
	return cands, bound
}

func candidateIDs(items []Item) []int32 {
	ids := make([]int32, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	slices.Sort(ids)
	return ids
}

// coincidentItems places n items on a handful of shared circles, two of
// them points, so distmax ties, equal leaf MBRs and leaf min-distances
// equal to the bound are common.
func coincidentItems(rng *rand.Rand, n int, side float64) []Item {
	spots := randomItems(rng, 4, side)
	spots[0].MBC.R, spots[1].MBC.R = 0, 0
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: int32(i), MBC: spots[rng.Intn(len(spots))].MBC, Ptr: uint64(i)}
	}
	return items
}

// referenceTrees returns a bulk-loaded tree over items and one built by
// inserts and deletes (whose COW node MBRs need not be tight).
func referenceTrees(items []Item, fanout int, rng *rand.Rand) []*Tree {
	ins := New(fanout, pager.New(0))
	extra := randomItems(rng, len(items)/4, 1000)
	for i := range extra {
		extra[i].ID += int32(len(items))
	}
	for _, it := range slices.Concat(items, extra) {
		ins.Insert(it)
	}
	for _, it := range extra {
		ins.Delete(it.ID, it.MBC)
	}
	return []*Tree{BulkLoad(items, fanout, pager.New(0)), ins}
}

// TestCandidatesMatchReferenceWalk: the single-descent walk returns the
// two-traversal walk's candidate ids, its bound bitwise and its count
// of page reads (Fig. 6(b)) on PNNCandidates' read path, and the same
// candidates and memo lookups on KNNCandidates'.
func TestCandidatesMatchReferenceWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	gens := []func(*rand.Rand, int, float64) []Item{randomItems, coincidentItems}
	outside := []geom.Point{geom.Pt(-400, 500), geom.Pt(1500, 1700), geom.Pt(500, -1e6), geom.Pt(-3, -3)}
	for _, fanout := range []int{4, DefaultFanout} {
		for _, n := range []int{0, 1, 5, 400, 4000} {
			for g, gen := range gens {
				items := gen(rng, n, 1000)
				for b, tr := range referenceTrees(items, fanout, rng) {
					queries := slices.Clone(outside)
					for i := 0; i < 8; i++ {
						queries = append(queries, geom.Pt(rng.Float64()*1000, rng.Float64()*1000))
					}
					if n > 0 {
						queries = append(queries, items[rng.Intn(n)].MBC.C)
					}
					for _, k := range []int{1, 4, n, n + 5} {
						for _, q := range queries {
							name := fmt.Sprintf("fanout=%d n=%d items#%d tree#%d k=%d q=%v", fanout, n, g, b, k, q)
							checkAgainstReference(t, name, tr, q, k)
						}
					}
				}
			}
		}
	}
}

func checkAgainstReference(t *testing.T, name string, tr *Tree, q geom.Point, k int) {
	t.Helper()
	pg := tr.Pager()
	r0 := pg.Reads()
	want, wantBound := referenceCandidates(tr, q, k, tr.readLeaf)
	r1 := pg.Reads()
	got, bound := tr.candidates(nil, q, k, tr.readLeaf)
	r2 := pg.Reads()
	if math.Float64bits(bound) != math.Float64bits(wantBound) {
		t.Fatalf("%s: bound %v, reference %v", name, bound, wantBound)
	}
	if g, w := candidateIDs(got), candidateIDs(want); !slices.Equal(g, w) {
		t.Fatalf("%s: candidates %v, reference %v", name, g, w)
	}
	if r2-r1 != r1-r0 {
		t.Fatalf("%s: %d page reads, reference %d", name, r2-r1, r1-r0)
	}
	if k == 1 {
		if pnn, d := tr.PNNCandidates(q); !slices.Equal(candidateIDs(pnn), candidateIDs(want)) || math.Float64bits(d) != math.Float64bits(wantBound) {
			t.Fatalf("%s: PNNCandidates differs from the reference", name)
		}
	}

	h0, m0, _ := tr.MemoStats()
	want, _ = referenceCandidates(tr, q, k, tr.readLeafMemo)
	h1, m1, _ := tr.MemoStats()
	got, bound = tr.KNNCandidates(q, k)
	h2, m2, _ := tr.MemoStats()
	if math.Float64bits(bound) != math.Float64bits(wantBound) || !slices.Equal(candidateIDs(got), candidateIDs(want)) {
		t.Fatalf("%s: KNNCandidates differs from the reference", name)
	}
	if h2+m2-h1-m1 != h1+m1-h0-m0 {
		t.Fatalf("%s: %d memo lookups, reference %d", name, h2+m2-h1-m1, h1+m1-h0-m0)
	}
}
