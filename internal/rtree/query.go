package rtree

import (
	"container/heap"
	"math"

	"uvdiagram/internal/geom"
)

// CenterRange returns the items whose MBC center lies inside the circle
// c. It is the circular range query of I-pruning (Lemma 2): "objects
// are removed if their centers are beyond the circular range".
func (t *Tree) CenterRange(c geom.Circle) []Item {
	var out []Item
	t.CenterRangeFunc(c, func(it Item) { out = append(out, it) })
	return out
}

// CenterRangeFunc visits, in the same depth-first leaf-walk order
// CenterRange collects them, every item whose MBC center lies inside c.
// The visitor form lets hot callers (I-pruning) collect ids into their
// own scratch buffers without materializing an []Item per call.
func (t *Tree) CenterRangeFunc(c geom.Circle, visit func(Item)) {
	t.walkWithin(c.C, c.R, func(it Item) bool { return it.MBC.C.Dist(c.C) <= c.R }, visit)
}

// NearFunc visits, in depth-first leaf-walk order, every item whose
// distmin from q — max(0, |q − c| − r), the NN browse's key — is at
// most radius. Derivation collects one neighbor list per leaf group
// with it.
func (t *Tree) NearFunc(q geom.Point, radius float64, visit func(Item)) {
	t.walkWithin(q, radius, func(it Item) bool { return q.Dist(it.MBC.C)-it.MBC.R <= radius }, visit)
}

// walkWithin visits, in depth-first leaf-walk order, every item that
// keep accepts among the leaves whose MBR lies within radius of q. keep
// must reject every item whose MBR lies farther than radius from q.
func (t *Tree) walkWithin(q geom.Point, radius float64, keep func(Item) bool, visit func(Item)) {
	hd := t.hdr.Load()
	if hd.size == 0 {
		return
	}
	var walk func(n *node)
	walk = func(n *node) {
		if n.rect.MinDist(q) > radius {
			return
		}
		if n.isLeaf() {
			t.visitLeaf(n, func(it Item) {
				if keep(it) {
					visit(it)
				}
			})
			return
		}
		for _, ch := range n.children {
			walk(ch)
		}
	}
	walk(hd.root)
}

// LeafIDs returns the item ids of every leaf, one slice per leaf in
// depth-first order: the groups of spatially close objects derivation
// visits together. Each leaf costs one page read.
func (t *Tree) LeafIDs() [][]int32 {
	var out [][]int32
	var walk func(n *node)
	walk = func(n *node) {
		if !n.isLeaf() {
			for _, ch := range n.children {
				walk(ch)
			}
			return
		}
		ids := make([]int32, 0, n.count)
		t.visitLeaf(n, func(it Item) { ids = append(ids, it.ID) })
		out = append(out, ids)
	}
	if hd := t.hdr.Load(); hd.size > 0 {
		walk(hd.root)
	}
	return out
}

// Neighbor is a k-nearest-neighbor result: an item and its minimum
// possible distance from the query point.
type Neighbor struct {
	Item    Item
	DistMin float64
}

// pqEntry is a best-first queue element: either a node or an item.
type pqEntry struct {
	key  float64
	node *node
	item Item
	leaf bool // item valid
}

type pq []pqEntry

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].key < q[j].key }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqEntry)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// KNN returns the k items with smallest distmin(q, Oi) in ascending
// order, using best-first traversal (node key: MBR min distance, a
// lower bound on any contained object's distmin). It is the seed-
// selection query of Section IV-B.
func (t *Tree) KNN(q geom.Point, k int) []Neighbor {
	hd := t.hdr.Load()
	if k <= 0 || hd.size == 0 {
		return nil
	}
	h := &pq{{key: hd.root.rect.MinDist(q), node: hd.root}}
	var out []Neighbor
	for h.Len() > 0 && len(out) < k {
		e := heap.Pop(h).(pqEntry)
		switch {
		case e.leaf:
			out = append(out, Neighbor{Item: e.item, DistMin: e.key})
		case e.node.isLeaf():
			for _, it := range t.readLeaf(e.node) {
				dmin := math.Max(0, q.Dist(it.MBC.C)-it.MBC.R)
				heap.Push(h, pqEntry{key: dmin, item: it, leaf: true})
			}
		default:
			for _, c := range e.node.children {
				heap.Push(h, pqEntry{key: c.rect.MinDist(q), node: c})
			}
		}
	}
	return out
}
