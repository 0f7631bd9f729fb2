package rtree

import (
	"math"

	"uvdiagram/internal/geom"
)

// NNIterator browses the tree's items in ascending distmin order,
// lazily: best-first distance browsing (Hjaltason & Samet) over a
// binary heap holding both nodes (keyed by MBR min distance) and
// decoded items (keyed by their exact distmin). Consumers pull exactly
// as many neighbors as they need — the output-sensitive replacement for
// materializing a full k-NN result up front.
//
// The pop sequence is bitwise identical to the prefix KNN would return
// for any k: the heap algorithm below replicates container/heap's sift
// rules on the same pqEntry ordering, so ties resolve exactly as they
// do in KNN. Reset reuses the heap storage and leaves are decoded in
// place, making steady-state browsing allocation-free.
type NNIterator struct {
	t *Tree
	q geom.Point
	h pq
}

// NewNNIterator starts browsing the tree's items around q.
func (t *Tree) NewNNIterator(q geom.Point) *NNIterator {
	it := &NNIterator{}
	it.Reset(t, q)
	return it
}

// Reset re-targets the iterator at (t, q), reusing its heap storage. A
// nil or empty tree yields an exhausted iterator.
func (it *NNIterator) Reset(t *Tree, q geom.Point) {
	it.t, it.q = t, q
	for i := range it.h {
		it.h[i] = pqEntry{} // release node/item references
	}
	it.h = it.h[:0]
	if t != nil {
		if hd := t.hdr.Load(); hd.size > 0 {
			it.h.push(pqEntry{key: hd.root.rect.MinDist(q), node: hd.root})
		}
	}
}

// Next returns the next item in ascending distmin order, or ok=false
// once the tree is exhausted. Each leaf is read (one page) the first
// time the traversal reaches it.
func (it *NNIterator) Next() (Neighbor, bool) {
	for len(it.h) > 0 {
		e := it.h.pop()
		switch {
		case e.leaf:
			return Neighbor{Item: e.item, DistMin: e.key}, true
		case e.node.isLeaf():
			it.t.visitLeaf(e.node, func(item Item) {
				dmin := math.Max(0, it.q.Dist(item.MBC.C)-item.MBC.R)
				it.h.push(pqEntry{key: dmin, item: item, leaf: true})
			})
		default:
			for _, c := range e.node.children {
				it.h.push(pqEntry{key: c.rect.MinDist(it.q), node: c})
			}
		}
	}
	return Neighbor{}, false
}

// push and pop replicate container/heap's Push/Pop (up/down sift order
// included) without the interface boxing, so they are allocation-free
// AND order-identical to the heap.Push/heap.Pop calls KNN makes on the
// same pq type — the property core's seed-selection bitwise-equivalence
// bar rests on.

func (q *pq) push(e pqEntry) {
	h := append(*q, e)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].key < h[i].key) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*q = h
}

func (q *pq) pop() pqEntry {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].key < h[j].key {
			j = j2
		}
		if !(h[j].key < h[i].key) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	e := h[n]
	h[n] = pqEntry{} // release node/item references
	*q = h[:n]
	return e
}
