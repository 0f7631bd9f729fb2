package core

// The pre-fast-path order-k derivation, retained VERBATIM as the
// equivalence oracle — the same role reference_oracle_test.go plays for the order-1
// derivation, and test-only like it. The fast path (orderk.go) must
// produce bitwise-identical cr-sets, index stats and PossibleKNN
// answers; TestOrderKParity sweeps worker counts and k against these
// loops.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"uvdiagram/internal/derive"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
)

// referenceMaxRadiusK is MaxRadiusK with the radial function evaluated
// through the specification (geom.UVEdge.RadialBound, see
// referenceRadius) instead of the prepared Constraint.Bound: the domain
// bound against the k-th smallest existing constraint bound.
func referenceMaxRadiusK(p *PossibleRegion, samples, k int) float64 {
	if samples < 8 {
		samples = 8
	}
	eval := func(phi float64) float64 {
		if k <= 1 {
			r, _ := referenceRadius(p, phi)
			return r
		}
		dir := geom.PolarUnit(phi)
		dom, _ := domainBound(p.Center(), p.Domain(), dir)
		var bounds []float64
		for _, c := range p.Constraints() {
			if t, ok := c.Edge.RadialBound(dir); ok {
				bounds = append(bounds, t)
			}
		}
		if len(bounds) < k {
			return dom
		}
		sort.Float64s(bounds)
		return math.Min(dom, bounds[k-1])
	}
	vals := make([]float64, samples)
	for i := range vals {
		vals[i] = eval(2 * math.Pi * float64(i) / float64(samples))
	}
	return derive.RingMax(vals, eval)
}

// DeriveOrderKCRReference is the original allocating derivation of one
// object's order-k cr-set: eager k-NN seed materialization, a fresh
// PossibleRegion and candidate slice per fixpoint round, closure-driven
// MaxRadiusK sweeps. Kept as the oracle the scratch-threaded
// DeriveOrderKCR is compared against.
func DeriveOrderKCRReference(tree *rtree.Tree, oi uncertain.Object, objs []uncertain.Object, domain geom.Rect, k, samples int) ([]int32, *PossibleRegion) {
	pr := NewPossibleRegion(oi.Region.C, domain)
	if tree != nil {
		for _, nb := range tree.KNN(oi.Region.C, 8*(k+1)) {
			if nb.Item.ID != oi.ID {
				pr.AddObject(oi, objs[nb.Item.ID])
			}
		}
	}
	d := referenceMaxRadiusK(pr, samples, k)
	var ids []int32
	for iter := 0; iter < 8; iter++ {
		radius := 2*d - oi.Region.R
		if radius <= 0 {
			radius = d
		}
		var cands []int32
		if tree != nil {
			for _, it := range tree.CenterRange(geom.Circle{C: oi.Region.C, R: radius}) {
				if it.ID != oi.ID {
					cands = append(cands, it.ID)
				}
			}
		} else {
			for j := range objs {
				if objs[j].ID != oi.ID && objs[j].Region.C.Dist(oi.Region.C) <= radius {
					cands = append(cands, objs[j].ID)
				}
			}
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a] < cands[b] })
		pr = NewPossibleRegion(oi.Region.C, domain)
		for _, j := range cands {
			pr.AddObject(oi, objs[j])
		}
		ids = cands
		d2 := referenceMaxRadiusK(pr, samples, k)
		if d2 >= d*(1-1e-9) {
			break
		}
		d = d2
	}
	return ids, pr
}

// BuildOrderKReference is the original single-threaded order-k build
// loop: derive object by object, no worker pool, no scratch reuse, then
// index the sets with BuildRegionCR. Retained as the fast path's
// equivalence oracle.
func BuildOrderKReference(store *uncertain.Store, domain geom.Rect, tree *rtree.Tree, k int, opts BuildOptions) (*UVIndex, BuildStats, error) {
	if k < 1 {
		return nil, BuildStats{}, fmt.Errorf("core: BuildOrderK needs k ≥ 1, got %d", k)
	}
	if store.Live() == 0 {
		return nil, BuildStats{}, fmt.Errorf("core: BuildOrderK over empty store")
	}
	opts.normalize()
	stats := BuildStats{Strategy: opts.Strategy, N: store.Live()}
	t0 := time.Now()

	objs := store.Dense() // position == id; tombstoned slots skipped
	crSets := make([][]int32, len(objs))
	for i := 0; i < len(objs); i++ {
		if !store.Alive(int32(i)) {
			continue
		}
		crSets[i], _ = DeriveOrderKCRReference(tree, objs[i], objs, domain, k, opts.RegionSamples)
		stats.SumCR += int64(len(crSets[i]))
	}
	stats.PruneDur = time.Since(t0)

	ix, indexDur, err := BuildRegionCR(store, domain, NewCRState(crSets), k, opts.Index)
	if err != nil {
		return nil, stats, err
	}
	stats.IndexDur = indexDur
	stats.TotalDur = time.Since(t0)
	stats.Index = ix.Stats()
	return ix, stats, nil
}
