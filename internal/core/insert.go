package core

import (
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/uncertain"
)

// splitState is the decision of CheckSplit (Algorithm 4).
type splitState int

const (
	stateNormal splitState = iota
	stateOverflow
	stateSplit
)

// overlapsIDs is Algorithm 5 (CheckOverlap): the UV-cell of oi,
// represented by its cr-object ids, overlaps rectangle r unless some
// single outside region contains all of r — the 4-point test of
// Lemma 4: an outside region is convex, so containing the four corners
// means containing the rectangle. The test can report spurious overlaps
// (extra leaf entries, slower queries) but never misses a true one
// (query correctness). It is evaluated directly from object geometry:
// avoiding materialized constraints keeps the index at 4 bytes per
// cr-object — essential at paper densities where |Ci| runs into the
// hundreds.
//
// For an order-k index the test generalizes: a point is outside the
// order-k cell iff at least k outside regions contain it, so the
// rectangle is certainly disjoint from the cell once k constraints each
// contain all of r (every point of r then has ≥ k sure excluders). As
// for k = 1 the test can report spurious overlaps but never misses a
// true one.
func (ix *UVIndex) overlapsIDs(oi uncertain.Object, crIDs []int32, r geom.Rect) bool {
	objs := ix.store.Dense() // one population-snapshot load for the whole scan
	ci, ri := oi.Region.C, oi.Region.R
	corners := r.Corners()
	excluders := 0
	for _, j := range crIDs {
		oj := objs[j].Region
		s := ri + oj.R
		if ci.Dist(oj.C) <= s {
			continue // overlapping uncertainty regions: no UV-edge
		}
		excluded := true
		for _, p := range corners {
			// p outside Xi(j) ⇔ dist(p,ci) − dist(p,cj) ≤ s.
			if p.Dist(ci)-p.Dist(oj.C) <= s {
				excluded = false
				break
			}
		}
		if excluded {
			excluders++
			if excluders >= ix.orderK {
				return false
			}
		}
	}
	return true
}

// cowPass is the one write path of the UV-index (Algorithms 3–4 as
// copy-on-write). A build inserts every object into an empty root, a
// legacy load hands it decoded leaves, and a live mutation removes and
// inserts objects in a published tree. Each pass copies the published
// nodes it changes; a node it created itself carries the fresh mark
// and is mutated in place, so a long pass (a build, or a delete's many
// reinserts) copies each node at most once. install then seals the
// fresh nodes and publishes the new tree with one treeState store.
//
// The pass also carries the running non-leaf budget, the
// entry-weighted churn and the replaced pages to retire after
// publication.
type cowPass struct {
	ix      *UVIndex
	nonleaf int
	entries int  // leaf entries touched (removed + created)
	changed bool // any structural change (splits can change without entries)
	retired []pager.PageID
}

// leaf returns a fresh leaf listing ids, with the pages its list needs
// allocated (at least one, mirroring the paper's linked page lists).
func (p *cowPass) leaf(ids []int32) *qnode {
	alloc := (len(ids) + p.ix.capPerPage - 1) / p.ix.capPerPage
	return &qnode{ids: ids, pagesAlloc: max(alloc, 1), fresh: true}
}

// copyLeaf returns a fresh, mutable copy of published leaf n with its
// pages retired; the copy's pages are written at seal time.
func (p *cowPass) copyLeaf(n *qnode) *qnode {
	p.retired = append(p.retired, n.pages...)
	return &qnode{ids: append([]int32(nil), n.ids...), pagesAlloc: n.pagesAlloc, fresh: true}
}

// withKids returns the replacement of non-leaf n once its children are
// kids: n itself when no child changed or when the pass created n (it
// is then updated in place), otherwise a fresh copy.
func (p *cowPass) withKids(n *qnode, kids [4]*qnode) *qnode {
	switch {
	case kids == *n.children:
		return n
	case n.fresh:
		*n.children = kids
		return n
	}
	copied := kids
	return &qnode{children: &copied, fresh: true}
}

// insertCOW is Algorithm 3 (InsertObj): it descends the grid adding id
// to every leaf its cell can overlap and returns the replacement of n.
// An object whose cell cannot reach the index's region is dropped by the
// root-level overlap test and leaves the tree untouched, which is how a
// spatial shard rejects out-of-region objects (and how live mutations
// know not to charge slack to shards they never reached).
func (p *cowPass) insertCOW(id int32, oi uncertain.Object, crIDs []int32, n *qnode, region geom.Rect, depth int) *qnode {
	ix := p.ix
	if !ix.overlapsIDs(oi, crIDs, region) {
		return n
	}
	if !n.isLeaf() {
		kids := *n.children
		for k := range kids {
			kids[k] = p.insertCOW(id, oi, crIDs, kids[k], region.Quadrant(k), depth+1)
		}
		return p.withKids(n, kids)
	}
	state, kids := p.checkSplit(id, oi, crIDs, n, region, depth)
	p.changed = true
	if state == stateSplit {
		// The tentative children (which already include id where it
		// overlaps) replace the leaf. A published leaf's pages are
		// retired; a fresh one has none and simply drops out of the tree.
		if !n.fresh {
			p.retired = append(p.retired, n.pages...)
		}
		p.nonleaf++
		for _, c := range kids {
			if len(c.ids) > 0 && c.ids[0] == id {
				p.entries++
			}
		}
		return &qnode{children: kids, fresh: true}
	}
	nl := n
	if !n.fresh {
		nl = p.copyLeaf(n)
	}
	if state == stateOverflow && len(nl.ids) >= nl.pagesAlloc*ix.capPerPage {
		nl.pagesAlloc++ // grant a new page (Algorithm 3 OVERFLOW)
	}
	nl.ids = append(nl.ids, id)
	p.entries++
	return nl
}

// checkSplit is Algorithm 4: decide between NORMAL (page space left),
// OVERFLOW (no splitting allowed or not useful) and SPLIT (redistribute
// into four children) against the pass's running non-leaf budget. On
// SPLIT the tentative children are returned, fresh, with id listed
// first wherever it overlaps.
func (p *cowPass) checkSplit(id int32, oi uncertain.Object, crIDs []int32, g *qnode, region geom.Rect, depth int) (splitState, *[4]*qnode) {
	ix := p.ix
	if len(g.ids) < g.pagesAlloc*ix.capPerPage {
		return stateNormal, nil
	}
	if p.nonleaf+1 > ix.opts.M || depth >= ix.opts.MaxDepth {
		return stateOverflow, nil
	}
	// Tentative redistribution of A = {Oi} ∪ g.list into the quadrants.
	var kids [4]*qnode
	minCount := -1
	for k := 0; k < 4; k++ {
		var ids []int32
		sub := region.Quadrant(k)
		if ix.overlapsIDs(oi, crIDs, sub) {
			ids = append(ids, id)
		}
		for _, j := range g.ids {
			if ix.overlapsIDs(ix.store.At(int(j)), ix.cr.crOf[j], sub) {
				ids = append(ids, j)
			}
		}
		kids[k] = p.leaf(ids)
		if minCount < 0 || len(ids) < minCount {
			minCount = len(ids)
		}
	}
	theta := float64(minCount) / float64(len(g.ids)) // Equation 10
	if theta < ix.opts.SplitTheta {
		return stateSplit, &kids
	}
	return stateOverflow, nil
}

// seal makes the fresh nodes of the tree under n publishable: it writes
// every fresh leaf's page list (<ID, MBC, pointer> tuples, Section V-A)
// and clears the fresh mark. Every ancestor of a fresh node is fresh
// (the pass copied the path down to it), so the walk descends only
// through fresh nodes and visits nothing it did not create.
func (p *cowPass) seal(n *qnode) {
	if !n.fresh {
		return
	}
	n.fresh = false
	if n.isLeaf() {
		n.pages = p.ix.writeLeafPages(n.ids)
		return
	}
	for _, c := range n.children {
		p.seal(c)
	}
}

// install seals the tree under root and publishes it.
func (p *cowPass) install(root *qnode) {
	p.seal(root)
	p.ix.ts.Store(&treeState{root: root, nonleaf: p.nonleaf})
}

// writeLeafPages chunks a leaf's tuples into pages (at least one page
// per leaf, mirroring the paper's linked page lists).
func (ix *UVIndex) writeLeafPages(ids []int32) []pager.PageID {
	tuples := make([]pager.LeafTuple, len(ids))
	for i, id := range ids {
		o := ix.store.At(int(id))
		tuples[i] = pager.LeafTuple{
			ID: id,
			CX: o.Region.C.X, CY: o.Region.C.Y, R: o.Region.R,
			Pointer: uint64(ix.store.PageOf(id)),
		}
	}
	var pages []pager.PageID
	for off := 0; ; off += ix.capPerPage {
		end := off + ix.capPerPage
		if end > len(tuples) {
			end = len(tuples)
		}
		var chunk []pager.LeafTuple
		if off < len(tuples) {
			chunk = tuples[off:end]
		}
		pages = append(pages, ix.pg.Alloc(pager.EncodeLeafTuples(chunk)))
		if end >= len(tuples) {
			break
		}
	}
	return pages
}
