package rtree

import (
	"container/heap"
	"math"

	"uvdiagram/internal/geom"
)

// PNNCandidates retrieves the candidate answer objects of a PNN at q
// with the branch-and-prune strategy of [14]:
//
//  1. a best-first traversal establishes dminmax = min_i distmax(q, Oi),
//     pruning nodes whose MBR min-distance exceeds the current bound;
//  2. a second traversal collects every object with
//     distmin(q, Oi) ≤ dminmax, pruning by the same bound.
//
// The two traversals re-read overlapping leaf pages; that repeated leaf
// I/O is precisely the overhead the UV-index removes (Figure 6(b)), so
// every visited leaf costs a page read here. The returned set is a
// superset of the exact answer set (the final strict filter runs on the
// candidates' exact distances).
func (t *Tree) PNNCandidates(q geom.Point) (cands []Item, dminmax float64) {
	return t.candidates(q, 1, t.readLeaf)
}

// KNNCandidates generalizes PNNCandidates to possible-k-NN retrieval:
// it returns every object whose minimum distance does not exceed the
// k-th smallest maximum distance (the bound below which k objects are
// guaranteed to exist), a superset of the exact possible-k-NN set.
// Leaves are read through the tree's memo (see leafMemo): a hit skips
// the page read and the decode.
func (t *Tree) KNNCandidates(q geom.Point, k int) (cands []Item, bound float64) {
	return t.candidates(q, k, t.readLeafMemo)
}

// candidates is the two-phase walk behind PNNCandidates (k = 1) and
// KNNCandidates, reading each visited leaf with read.
func (t *Tree) candidates(q geom.Point, k int, read func(*node) []Item) (cands []Item, bound float64) {
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

// Small float max-heap helpers for candidates.
func up(h []float64) {
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] >= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func down(h []float64) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h) && h[l] > h[big] {
			big = l
		}
		if r < len(h) && h[r] > h[big] {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}
