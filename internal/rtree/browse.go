package rtree

import (
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
)

// NNIterator browses the tree's items in ascending distmin order,
// lazily: best-first distance browsing (Hjaltason & Samet) over a
// binary heap holding both nodes (keyed by MBR min distance) and
// decoded items (keyed by their exact distmin). Consumers pull exactly
// as many neighbors as they need — the output-sensitive replacement for
// materializing a full k-NN result up front.
//
// A heap entry is only a key and an index: items decoded from a leaf
// land in the iterator's item buffer and nodes in its node buffer, so a
// sift moves 16 bytes however large an Item is. The pop sequence is
// bitwise identical to the prefix KNN would return for any k: nnHeap
// replicates container/heap's sift rules on the same keys pushed
// in the same order, so ties resolve exactly as they do in KNN. Reset
// reuses every buffer and leaves are decoded straight off their pages,
// making steady-state browsing allocation-free.
type NNIterator struct {
	t     *Tree
	q     geom.Point
	h     nnHeap
	items []Item  // leaf items decoded so far
	nodes []*node // nodes pushed so far
}

// nnEntry is one best-first heap element: ref ≥ 0 names items[ref],
// ref < 0 names nodes[^ref] (the candidate walk pushes nodes only).
type nnEntry struct {
	key float64
	ref int32
}

// NewNNIterator starts browsing the tree's items around q.
func (t *Tree) NewNNIterator(q geom.Point) *NNIterator {
	it := &NNIterator{}
	it.Reset(t, q)
	return it
}

// Reset re-targets the iterator at (t, q), reusing its buffers. A nil
// or empty tree yields an exhausted iterator.
func (it *NNIterator) Reset(t *Tree, q geom.Point) {
	it.t, it.q = t, q
	clear(it.nodes) // release node references
	it.h, it.items, it.nodes = it.h[:0], it.items[:0], it.nodes[:0]
	if t != nil {
		if hd := t.hdr.Load(); hd.size > 0 {
			it.pushNode(hd.root.rect.MinDist(q), hd.root)
		}
	}
}

// Next returns the next item in ascending distmin order, or ok=false
// once the tree is exhausted. Each leaf is read (one page) the first
// time the traversal reaches it.
func (it *NNIterator) Next() (Neighbor, bool) {
	for len(it.h) > 0 {
		e := it.h.pop()
		if e.ref >= 0 {
			return Neighbor{Item: it.items[e.ref], DistMin: e.key}, true
		}
		n := it.nodes[^e.ref]
		if !n.isLeaf() {
			for _, c := range n.children {
				it.pushNode(c.rect.MinDist(it.q), c)
			}
			continue
		}
		page, cnt := it.t.leafPage(n)
		for i := 0; i < cnt; i++ {
			item := fromTuple(pager.LeafTupleAt(page, i))
			// KNN's key, math.Max(0, …): the builtin has the same NaN and
			// signed-zero rules.
			it.h.push(nnEntry{key: max(0, it.q.Dist(item.MBC.C)-item.MBC.R), ref: int32(len(it.items))})
			it.items = append(it.items, item)
		}
	}
	return Neighbor{}, false
}

func (it *NNIterator) pushNode(key float64, n *node) {
	it.h.push(nnEntry{key: key, ref: ^int32(len(it.nodes))})
	it.nodes = append(it.nodes, n)
}

// nnHeap is the allocation-free binary min-heap of the best-first walks
// (NNIterator and the candidate walk). push and pop replicate
// container/heap's Push/Pop (up/down sift order included) without the
// interface boxing, so they are order-identical to the heap.Push/
// heap.Pop calls KNN makes with the same keys — the property core's
// seed-selection bitwise-equivalence bar rests on.
type nnHeap []nnEntry

func (hp *nnHeap) push(e nnEntry) {
	h := append(*hp, e)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].key < h[i].key) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*hp = h
}

func (hp *nnHeap) pop() nnEntry {
	h := *hp
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
	*hp = h[:n]
	return h[n]
}
