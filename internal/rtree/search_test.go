package rtree

import "uvdiagram/internal/geom"

// Rectangle range search, kept for the tests that check the tree's
// contents after bulk loads, inserts and deletes: no query path uses it.

// Search visits every item whose MBR overlaps r. visit returns false to
// stop early; Search reports whether the traversal ran to completion.
// Each visited leaf costs one page read.
func (t *Tree) Search(r geom.Rect, visit func(Item) bool) bool {
	h := t.hdr.Load()
	if h.size == 0 {
		return true
	}
	return t.search(h.root, r, visit)
}

func (t *Tree) search(n *node, r geom.Rect, visit func(Item) bool) bool {
	if !n.rect.Overlaps(r) {
		return true
	}
	if n.isLeaf() {
		for _, it := range t.readLeaf(n) {
			if it.Rect().Overlaps(r) {
				if !visit(it) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !t.search(c, r, visit) {
			return false
		}
	}
	return true
}

// SearchCollect returns all items whose MBR overlaps r.
func (t *Tree) SearchCollect(r geom.Rect) []Item {
	var out []Item
	t.Search(r, func(it Item) bool { out = append(out, it); return true })
	return out
}
