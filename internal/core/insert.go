package core

import (
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/uncertain"
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

// overlaps is the grid's overlap test: object id's cell as the registry
// records it.
func (ix *UVIndex) overlaps(id int32, r geom.Rect) bool {
	return ix.overlapsIDs(ix.store.At(int(id)), ix.cr.crOf[id], r)
}

// encodeLeaf encodes one leaf page of <ID, MBC, pointer> tuples
// (Section V-A).
func (ix *UVIndex) encodeLeaf(ids []int32) []byte {
	tuples := make([]pager.LeafTuple, len(ids))
	for i, id := range ids {
		o := ix.store.At(int(id))
		tuples[i] = pager.LeafTuple{
			ID: id,
			CX: o.Region.C.X, CY: o.Region.C.Y, R: o.Region.R,
			Pointer: uint64(ix.store.PageOf(id)),
		}
	}
	return pager.EncodeLeafTuples(tuples)
}
