package prob

import (
	"slices"
	"sort"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
)

// KNNAnswerSet returns the indices of objects with non-zero probability
// of being among the k nearest neighbors of q — the possible-k-NN set,
// the natural k-NN generalization the paper lists as future work (via
// k-th order Voronoi diagrams [30]).
//
// Exact predicate: Oi can be a k-NN of q iff fewer than k other objects
// are *surely* closer, i.e. |{j ≠ i : distmax(Oj,q) < distmin(Oi,q)}| ≤
// k−1. (Place Oi at its minimum distance; every object without a surely
// -closer guarantee can simultaneously be farther with positive
// probability, by independence.)
func KNNAnswerSet(objs []uncertain.Object, q geom.Point, k int) []int {
	mins := make([]float64, len(objs))
	maxes := make([]float64, len(objs))
	for i := range objs {
		mins[i] = objs[i].DistMin(q)
		maxes[i] = objs[i].DistMax(q)
	}
	return KNNAnswerSetDists(nil, mins, maxes, k)
}

// KNNAnswerSetDists is KNNAnswerSet on precomputed distance bounds:
// mins[i] and maxes[i] are distmin/distmax between q and object i. It
// lets callers that already hold the objects' bounding circles (e.g.
// R-tree leaf entries) answer without materializing the objects. The
// indices are appended to dst, and maxes is sorted in place, so a
// caller reusing its buffers answers without allocating.
func KNNAnswerSetDists(dst []int, mins, maxes []float64, k int) []int {
	n := len(mins)
	if n == 0 || k <= 0 {
		return dst
	}
	if k >= n {
		for i := range n {
			dst = append(dst, i)
		}
		return dst
	}
	slices.Sort(maxes)
	for i, dmin := range mins {
		// Objects with distmax strictly below dmin are surely closer.
		surelyCloser := sort.SearchFloat64s(maxes, dmin)
		// Oi itself never counts: distmax(Oi) ≥ distmin(Oi) = dmin, so it
		// is never in the strict prefix.
		if surelyCloser <= k-1 {
			dst = append(dst, i)
		}
	}
	return dst
}
