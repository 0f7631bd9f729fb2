package core

import (
	"uvdiagram/internal/geom"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
)

// iPruneInto performs index-level pruning (Step 2 of Algorithm 2,
// Lemma 2): only objects whose center lies within the circle
// Cout = Cir(ci, 2d−ri) can reshape the possible region, where d is the
// maximum distance of the region from ci. The circular range query runs
// on the R-tree and Oi itself is excluded; the ids of the set I are
// appended to a caller-owned buffer (the derivation scratch), straight
// off the R-tree walk. MaxRadius reads the region's cached profile, so
// the O(samples × constraints) re-sweep the eager implementation paid
// here is gone.
//
// When oi's group list g (nil for none) lists every center within the
// range — the radius plus oi's offset from the group's center is at
// most its cover — the range is a filter of the list instead, with
// dist[j] the distance from oi's center to item j's (seedsFromList's),
// the same expression the tree walk evaluates. The ids then come in list
// order rather than walk order; callers sort the survivors.
func iPruneInto(tree *rtree.Tree, g *seedGroup, oi uncertain.Object, region *PossibleRegion, samples int, ids []int32, dist []float64) []int32 {
	d := region.MaxRadius(samples)
	radius := 2*d - oi.Region.R
	if radius <= 0 {
		return ids
	}
	if g != nil && radius+oi.Region.C.Dist(g.center) <= g.cover {
		for j, it := range g.items {
			if dist[j] <= radius && it.ID != oi.ID {
				ids = append(ids, it.ID)
			}
		}
		return ids
	}
	tree.CenterRangeFunc(geom.Circle{C: oi.Region.C, R: radius}, func(it rtree.Item) {
		if it.ID != oi.ID {
			ids = append(ids, it.ID)
		}
	})
	return ids
}

// cPruneInto performs computational-level pruning (Step 3 of Algorithm
// 2, Lemma 3): with CH(Pi) the convex hull of the possible region and
// d-bounds Cir(v, dist(v, ci)) at its vertices, an object whose center
// lies outside every d-bound cannot reshape the region. Because
// boundary arcs are concave toward the region, CH(Pi) is exactly the
// hull of the region's breakpoints. d-bound radii carry a hair of slack
// so that vertex refinement error can only weaken pruning, never drop
// a true r-object.
//
// It runs through the derivation scratch: the hull, the d-bounds and
// the survivor list live in sc's buffers (the result aliases sc.kept
// unless it degenerates to the input), and the region's cached Vertices
// sweep — already computed by I-pruning's MaxRadius — is reused instead
// of re-extracted.
func cPruneInto(candidates []int32, oi uncertain.Object, region *PossibleRegion, samples int, objs []uncertain.Object, sc *DeriveScratch) []int32 {
	vs := region.Vertices(samples)
	sc.pts = sc.pts[:0]
	for _, v := range vs {
		sc.pts = append(sc.pts, v.P)
	}
	hull := geom.ConvexHullScratch(sc.pts, &sc.hull)
	if len(hull) == 0 {
		return candidates
	}
	sc.bounds = sc.bounds[:0]
	for _, v := range hull {
		sc.bounds = append(sc.bounds, geom.Circle{C: v, R: v.Dist(oi.Region.C) * (1 + 1e-9)})
	}
	kept := sc.kept[:0]
	for _, id := range candidates {
		// Objects overlapping Oi contribute no UV-edge and can never be
		// r-objects; drop them from the candidate set outright.
		if oi.Region.Overlaps(objs[id].Region) {
			continue
		}
		cj := objs[id].Region.C
		for _, b := range sc.bounds {
			if b.Contains(cj) {
				kept = append(kept, id)
				break
			}
		}
	}
	sc.kept = kept
	return kept
}
