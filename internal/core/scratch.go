package core

import (
	"slices"
	"time"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
)

// DeriveScratch carries the reusable buffers of one derivation worker
// through the whole of Algorithm 2 — the incremental-NN browse of seed
// selection, the seeded possible region (with its radius profile), the
// I-pruning id buffer, the C-pruning hull/bound/survivor buffers and
// the sorted-merge staging area — so that steady-state derivation
// allocates nothing but the returned cr-set itself. A scratch is owned
// by exactly one goroutine: Build gives each worker its own, and the DB
// keeps one for Insert and Delete, which derive with the same DeriveCR
// (mutations hold the store lock exclusively, so it is never shared).
type DeriveScratch struct {
	it     rtree.NNIterator
	seeds  []int32
	taken  []bool       // sectors seeded so far
	run    []rtree.Item // one run of equal distmin off the browse
	seedK  int          // k of the seed query in progress
	pulled int          // neighbors consumed by it
	reach  []float64    // its sectors' domain reach, once needed
	keyed  []keyedRef   // group-list entries within the seed radius
	dist   []float64    // distance to every group-list item's center
	ids    []int32      // I-pruning survivors
	kept   []int32      // C-pruning survivors
	sorted []int32      // sorted copy of seeds for the union merge
	pts    []geom.Point
	hull   geom.HullScratch
	bounds []geom.Circle
	region PossibleRegion // seeded region (profile buffers reused)
	refine PossibleRegion // refinement region for ICR/Basic cells

	orderK orderKDeriver // DeriveOrderKCR's bound table and buffers
}

// NewDeriveScratch returns an empty scratch; buffers grow on first use
// and are retained across calls.
func NewDeriveScratch() *DeriveScratch { return &DeriveScratch{} }

// DeriveCR is the output-sensitive Algorithm 2 used by the live
// mutation paths (Insert, and Delete's re-derivation of the dependents
// that lost a tight constraint): seeds, I-/C-pruning and the
// sorted-union merge, all through sc's buffers. It runs the deriveCR
// that Build's workers run through DeriveCRSets, so a set derived here
// is the set Build would derive over the same population. Only the
// returned cr-set is freshly allocated — it outlives the scratch (the
// registry retains it).
func DeriveCR(tree *rtree.Tree, oi uncertain.Object, objs []uncertain.Object, domain geom.Rect, k, ks, samples int, sc *DeriveScratch) []int32 {
	cr, _, _ := deriveCR(tree, nil, oi, objs, domain, k, ks, samples, false, sc)
	return cr
}

// deriveCR runs seeds + pruning + merge with sc's buffers, returning
// the retained cr-set, the build counters of this one object (seed and
// prune time, |I|, |Ci|) and the C-pruning survivor count. g, when not
// nil, is the shared list of oi's group: seeds and the I-pruning range
// come from it where it suffices, and from the tree where it does not.
func deriveCR(tree *rtree.Tree, g *seedGroup, oi uncertain.Object, objs []uncertain.Object, domain geom.Rect, k, ks, samples int, disableCPrune bool, sc *DeriveScratch) (cr []int32, ds deriveStats, nC int) {
	ts := time.Now()
	if g == nil || !sc.seedsFromList(g, oi, domain, k, ks) {
		sc.selectSeeds(tree, oi, domain, k, ks)
	}
	region := &sc.region
	region.Reset(oi.Region.C, domain)
	for _, id := range sc.seeds {
		region.AddObject(oi, objs[id])
	}
	tp := time.Now()
	ds.seed = tp.Sub(ts)
	sc.ids = iPruneInto(tree, g, oi, region, samples, sc.ids[:0], sc.dist)
	kept := sc.ids
	if !disableCPrune {
		kept = cPruneInto(sc.ids, oi, region, samples, objs, sc)
	}
	slices.Sort(kept)
	sc.sorted = append(sc.sorted[:0], sc.seeds...)
	slices.Sort(sc.sorted)
	cr = mergeSorted(kept, sc.sorted)
	ds.prune = time.Since(tp)
	ds.sumI, ds.sumCR = int64(len(sc.ids)), int64(len(cr))
	return cr, ds, len(kept)
}

// mergeSorted returns the deduplicated union of two ascending-sorted id
// slices as a freshly allocated sorted slice (duplicates within either
// input are collapsed too).
func mergeSorted(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	emit := func(v int32) {
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			emit(a[i])
			i++
		case b[j] < a[i]:
			emit(b[j])
			j++
		default:
			emit(a[i])
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		emit(a[i])
	}
	for ; j < len(b); j++ {
		emit(b[j])
	}
	return out
}
