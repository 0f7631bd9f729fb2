package rtree

import (
	"math"
	"sync"

	"uvdiagram/internal/geom"
)

// PNNCandidates retrieves the candidate answer objects of a PNN at q
// with the branch-and-prune strategy of [14]: phase 1 establishes
// dminmax = min_i distmax(q, Oi), pruning nodes whose MBR min-distance
// exceeds the current bound; phase 2 collects every object with
// distmin(q, Oi) ≤ dminmax (see candidates).
//
// Phase 2 re-reads leaf pages phase 1 already read; that repeated leaf
// I/O is precisely the overhead the UV-index removes (Figure 6(b)), so
// every leaf visit costs a page read here. The returned set is a
// superset of the exact answer set (the final strict filter runs on the
// candidates' exact distances).
func (t *Tree) PNNCandidates(q geom.Point) (cands []Item, dminmax float64) {
	return t.candidates(nil, q, 1, t.readLeaf)
}

// KNNCandidates generalizes PNNCandidates to possible-k-NN retrieval:
// it returns every object whose minimum distance does not exceed the
// k-th smallest maximum distance (the bound below which k objects are
// guaranteed to exist), a superset of the exact possible-k-NN set.
// Leaves are read through the tree's memo (see leafMemo): a hit skips
// the page read and the decode.
func (t *Tree) KNNCandidates(q geom.Point, k int) (cands []Item, bound float64) {
	return t.AppendKNNCandidates(nil, q, k)
}

// AppendKNNCandidates is KNNCandidates appending the candidates to dst
// and returning the extended slice: a caller that reuses dst retrieves
// without allocating once the memo is warm.
func (t *Tree) AppendKNNCandidates(dst []Item, q geom.Point, k int) ([]Item, float64) {
	return t.candidates(dst, q, k, t.readLeafMemo)
}

// candidates is the one branch-and-prune walk behind PNNCandidates
// (k = 1) and KNNCandidates. It reads leaves with read, appends the
// candidates to dst and returns the k-th smallest distmax as the bound
// (+Inf on an empty tree or for k ≤ 0).
//
// Phase 1 is a best-first traversal in ascending MBR min-distance that
// keeps the k smallest distmax values seen and stops at the first node
// farther than the k-th of them; it pops in container/heap's order
// (nnHeap), which fixes the bound bitwise. Phase 2 collects every item
// with distmin ≤ bound without a second descent: it re-reads the
// leaves phase 1 read whose min-distance is ≤ bound. Those are all the
// leaves a descent pruned by bound would reach — a node's MBR contains
// its children's and the running k-th distmax never falls below the
// final bound, so each is popped before phase 1 stops — hence the
// candidates and the count of leaf reads (Fig. 6(b)) are those of [14]'s
// two traversals. The walk's buffers are pooled: when read does not
// allocate, only appending to dst does.
func (t *Tree) candidates(dst []Item, q geom.Point, k int, read func(*node) []Item) ([]Item, float64) {
	hd := t.hdr.Load()
	if hd.size == 0 || k <= 0 {
		return dst, math.Inf(1)
	}
	k = min(k, hd.size)
	w := walks.Get().(*walk)
	bound := math.Inf(1) // the k-th smallest distmax seen so far

	// Phase 1: the k smallest distmax values.
	w.pushNode(hd.root.rect.MinDist(q), hd.root)
	for len(w.h) > 0 {
		e := w.h.pop()
		if e.key > bound {
			break
		}
		n := w.nodes[^e.ref]
		if !n.isLeaf() {
			for _, c := range n.children {
				if kk := c.rect.MinDist(q); kk <= bound {
					w.pushNode(kk, c)
				}
			}
			continue
		}
		w.leaves = append(w.leaves, e)
		for _, it := range read(n) {
			bound = w.keep(q.Dist(it.MBC.C)+it.MBC.R, k)
		}
	}

	// Phase 2: every item with distmin ≤ bound, from the leaves phase 1
	// read within bound.
	for _, e := range w.leaves {
		if e.key > bound {
			continue
		}
		for _, it := range read(w.nodes[^e.ref]) {
			if max(0, q.Dist(it.MBC.C)-it.MBC.R) <= bound {
				dst = append(dst, it)
			}
		}
	}
	w.reset()
	walks.Put(w)
	return dst, bound
}

// walk is the per-call state of candidates, pooled in walks.
type walk struct {
	h      nnHeap    // phase 1's queue of nodes keyed by MBR min-distance
	nodes  []*node   // nodes pushed so far; a node entry's ref is ^index
	top    []float64 // max-heap of the k smallest distmax seen
	leaves []nnEntry // the leaves phase 1 read, keyed by min-distance
}

var walks = sync.Pool{New: func() any { return new(walk) }}

func (w *walk) pushNode(key float64, n *node) {
	w.h.push(nnEntry{key: key, ref: ^int32(len(w.nodes))})
	w.nodes = append(w.nodes, n)
}

// keep offers distmax d to the k smallest seen and returns the k-th
// smallest of them, +Inf while fewer than k have been seen.
func (w *walk) keep(d float64, k int) float64 {
	if len(w.top) < k {
		w.top = append(w.top, d)
		up(w.top)
	} else if d < w.top[0] {
		w.top[0] = d
		down(w.top)
	}
	if len(w.top) < k {
		return math.Inf(1)
	}
	return w.top[0]
}

// reset empties the buffers for the next walk, dropping the node
// references so a pooled walk does not pin a retired tree.
func (w *walk) reset() {
	clear(w.nodes)
	w.h, w.nodes, w.top, w.leaves = w.h[:0], w.nodes[:0], w.top[:0], w.leaves[:0]
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
