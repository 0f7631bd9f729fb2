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

// Insert adds object id, represented by its cr-object ids, to the index
// (Algorithm 3, InsertObj), recording the set in the index's registry.
// It must be called before Finish, and only on an index that OWNS its
// registry (shared-registry shards use InsertShared).
func (ix *UVIndex) Insert(id int32, crIDs []int32) {
	if ix.finished {
		panic("core: Insert after Finish")
	}
	ix.cr.crOf[id] = crIDs
	ix.cr.addRev(id, crIDs)
	ix.insertObj(id, ix.store.At(int(id)), crIDs, ix.root, ix.domain, 0)
}

// InsertShared adds object id using the representation already recorded
// in the (shared) registry, without touching the registry itself —
// concurrent shard builds feed off one registry this way.
func (ix *UVIndex) InsertShared(id int32) {
	if ix.finished {
		panic("core: InsertShared after Finish")
	}
	ix.insertObj(id, ix.store.At(int(id)), ix.cr.crOf[id], ix.root, ix.domain, 0)
}

// insertObj descends the grid adding id to every leaf its cell can
// overlap. It returns the number of leaf-list entries created for id —
// the entry-weighted churn the slack counter accrues — plus a changed
// flag reporting whether ANY structure was modified: a split can dirty
// leaves (redistributing existing members) even when the conservative
// overlap test then keeps id out of every child, so the flag — not the
// entry count — is what gates the dirty-page flush and the cache-
// invalidating generation bump. An object whose cell cannot reach the
// index's region is dropped by the root-level overlap test and returns
// (0, false), which is how a spatial shard rejects out-of-region
// objects (and how live mutations know not to charge slack to shards
// they never reached).
func (ix *UVIndex) insertObj(id int32, oi uncertain.Object, crIDs []int32, g *qnode, region geom.Rect, depth int) (int, bool) {
	if !ix.overlapsIDs(oi, crIDs, region) {
		return 0, false
	}
	if !g.isLeaf() {
		entries, changed := 0, false
		for k := 0; k < 4; k++ {
			e, ch := ix.insertObj(id, oi, crIDs, g.children[k], region.Quadrant(k), depth+1)
			entries += e
			changed = changed || ch
		}
		return entries, changed
	}
	state, kids := ix.checkSplit(id, oi, crIDs, g, region, depth, ix.nonleaf)
	switch state {
	case stateNormal:
		g.ids = append(g.ids, id)
		g.dirty = true
	case stateOverflow:
		if len(g.ids) >= g.pagesAlloc*ix.capPerPage {
			g.pagesAlloc++ // allocate a new page for g
		}
		g.ids = append(g.ids, id)
		g.dirty = true
	case stateSplit:
		// The page list of g is dropped; the (previously computed)
		// children — whose lists already include the new object — take
		// over and g becomes a non-leaf node.
		g.ids = nil
		g.pages = nil // orphaned on the simulated disk
		g.pagesAlloc = 0
		g.dirty = false
		g.children = kids
		for k := 0; k < 4; k++ {
			kids[k].dirty = true
		}
		ix.nonleaf++
		entries := 0
		for k := 0; k < 4; k++ {
			for _, v := range kids[k].ids {
				if v == id {
					entries++
					break
				}
			}
		}
		return entries, true
	}
	return 1, true
}

// checkSplit is Algorithm 4: decide between NORMAL (page space left),
// OVERFLOW (no splitting allowed or not useful) and SPLIT (redistribute
// into four children). On SPLIT the tentative children are returned.
// nonleaf is the caller's current non-leaf budget spent (the staging
// tree's during construction, the COW pass's during live mutation).
func (ix *UVIndex) checkSplit(id int32, oi uncertain.Object, crIDs []int32, g *qnode, region geom.Rect, depth, nonleaf int) (splitState, *[4]*qnode) {
	if len(g.ids) < g.pagesAlloc*ix.capPerPage {
		return stateNormal, nil
	}
	if nonleaf+1 > ix.opts.M || depth >= ix.opts.MaxDepth {
		return stateOverflow, nil
	}
	// Tentative redistribution of A = {Oi} ∪ g.list into the quadrants.
	var kids [4]*qnode
	minCount := -1
	for k := 0; k < 4; k++ {
		child := &qnode{pagesAlloc: 1}
		sub := region.Quadrant(k)
		if ix.overlapsIDs(oi, crIDs, sub) {
			child.ids = append(child.ids, id)
		}
		for _, j := range g.ids {
			if ix.overlapsIDs(ix.store.At(int(j)), ix.cr.crOf[j], sub) {
				child.ids = append(child.ids, j)
			}
		}
		if need := (len(child.ids) + ix.capPerPage - 1) / ix.capPerPage; need > 1 {
			child.pagesAlloc = need
		}
		kids[k] = child
		if minCount < 0 || len(child.ids) < minCount {
			minCount = len(child.ids)
		}
	}
	theta := float64(minCount) / float64(len(g.ids)) // Equation 10
	if theta < ix.opts.SplitTheta {
		return stateSplit, &kids
	}
	return stateOverflow, nil
}

// Finish seals the index: every leaf's object list is serialized into
// its page list (<ID, MBC, pointer> tuples, Section V-A). After Finish
// the index answers queries; further Inserts panic.
func (ix *UVIndex) Finish() {
	if ix.finished {
		return
	}
	var walk func(n *qnode)
	walk = func(n *qnode) {
		if !n.isLeaf() {
			for _, c := range n.children {
				walk(c)
			}
			return
		}
		n.pages = ix.writeLeafPages(n.ids)
		n.dirty = false
	}
	walk(ix.root)
	ix.finished = true
	// Publish the constructed tree; from here on readers traverse the
	// snapshot and mutations copy-on-write (see treeState).
	ix.ts.Store(&treeState{root: ix.root, nonleaf: ix.nonleaf})
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
