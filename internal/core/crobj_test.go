package core

import (
	"slices"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
)

// CRResult is the output of Algorithm 2 for one object: the candidate
// reference objects Ci (a superset of the true r-objects Fi), the
// initial possible region built from the seeds, and pruning statistics.
type CRResult struct {
	Seeds  []int32
	CR     []int32 // cr-objects, always a superset of the seeds
	Region *PossibleRegion
	NI     int // |I|: survivors of I-pruning
	NC     int // |Ci| before merging seeds back in
}

// DeriveCRObjects runs Algorithm 2 for Oi over the dataset objs inside
// domain D:
//
//	Step 1  initPossibleRegion — seeds via sectored k-NN;
//	Step 2  indexPrune         — Lemma 2 circular range on the R-tree;
//	Step 3  compPrune          — Lemma 3 d-bound test on CH(Pi).
//
// The seeds are merged into the returned cr-set: they already shaped
// the possible region, so the overlap tests of Algorithm 5 must see
// their constraints too.
//
// This test-only form allocates its own scratch and returns the full
// result (region included); Build's workers and the Insert/Delete
// re-derivation run the same deriveCR with a long-lived DeriveScratch,
// so both give bitwise-identical cr-sets.
func DeriveCRObjects(tree *rtree.Tree, oi uncertain.Object, objs []uncertain.Object, domain geom.Rect, k, ks, samples int) CRResult {
	sc := NewDeriveScratch()
	cr, ds, nC := deriveCR(tree, nil, oi, objs, domain, k, ks, samples, false, sc)
	// The scratch is throwaway here, so its seeded region and seed list
	// (in discovery order — deriveCR sorts a copy, not sc.seeds) can be
	// handed out directly.
	return CRResult{
		Seeds:  append([]int32(nil), sc.seeds...),
		CR:     cr,
		Region: &sc.region,
		NI:     int(ds.sumI),
		NC:     nC,
	}
}

// mergeIDs returns the sorted union of two id slices without modifying
// either input. It is the standalone form of the sort-merge union the
// derivation performs on scratch-owned, pre-sorted inputs
// (mergeSorted).
func mergeIDs(a, b []int32) []int32 {
	as := append(make([]int32, 0, len(a)), a...)
	bs := append(make([]int32, 0, len(b)), b...)
	slices.Sort(as)
	slices.Sort(bs)
	return mergeSorted(as, bs)
}
