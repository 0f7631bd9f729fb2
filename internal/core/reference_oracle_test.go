package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
)

// Reference (naive) derivation — the pre-optimization Algorithm 2,
// retained as the equivalence oracle for the output-sensitive fast
// path: the seed choice sorts the whole population by brute force, the
// radial sweep is re-evaluated from scratch on every MaxRadius /
// Vertices use, and the id union builds a map per object. The optimized
// path (DeriveCR, the Build workers) must produce bitwise-identical
// cr-sets and therefore bitwise-identical indexes and answers. This is
// test-only code: the property tests of reference_test.go hold the fast
// path to it, and BenchmarkDeriveCRSetsReference there is the "before"
// side of the speed ratio (BenchmarkDeriveCRSets in the root package is
// the "after").

// referenceSelectSeeds is the sectored seed choice by brute force,
// with no R-tree: every live object sorted by (distmin from Oi's
// center, id), the first k+1 kept, then one pass of the sector loop
// over them. live is the live population (Oi among it).
func referenceSelectSeeds(live []uncertain.Object, oi uncertain.Object, k, ks int) []int32 {
	seeds, _ := referenceSeedPulls(live, oi, k, ks)
	return seeds
}

// referenceSeedPulls is referenceSelectSeeds that also returns how many
// objects the sector loop consumed.
func referenceSeedPulls(live []uncertain.Object, oi uncertain.Object, k, ks int) ([]int32, int) {
	if k <= 0 {
		k = DefaultSeedK
	}
	if ks <= 0 {
		ks = DefaultSeedSectors
	}
	type cand struct {
		key float64
		o   uncertain.Object
	}
	cands := make([]cand, len(live))
	for i, o := range live {
		cands[i] = cand{math.Max(0, oi.Region.C.Dist(o.Region.C)-o.Region.R), o}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return cmp.Compare(a.o.ID, b.o.ID)
	})
	if len(cands) > k+1 {
		cands = cands[:k+1]
	}
	seeds := make([]int32, 0, ks)
	taken := make([]bool, ks)
	pulls := 0
	for _, c := range cands {
		pulls++
		if c.o.ID == oi.ID || oi.Region.Overlaps(c.o.Region) {
			continue
		}
		dir := c.o.Region.C.Sub(oi.Region.C)
		sector := int(geom.NormalizeAngle(dir.Angle()) / (2 * math.Pi) * float64(ks))
		if sector >= ks {
			sector = ks - 1
		}
		if !taken[sector] {
			taken[sector] = true
			seeds = append(seeds, c.o.ID)
			if len(seeds) == ks {
				break
			}
		}
	}
	return seeds, pulls
}

// referenceRadius is Radius through the SPECIFICATION: the domain
// bound, then geom.UVEdge.RadialBound — existence test and per-edge
// subexpressions re-derived per call — folded over the constraints in
// order. The reference must not ride on Constraint.Bound, the prepared
// form the fast path evaluates, or the equivalence tests would compare
// it against itself.
func referenceRadius(p *PossibleRegion, phi float64) (float64, int) {
	dir := geom.PolarUnit(phi)
	r, active := domainBound(p.Center(), p.Domain(), dir)
	for i, c := range p.Constraints() {
		if t, ok := c.Edge.RadialBound(dir); ok && t < r {
			r, active = t, i
		}
	}
	return r, active
}

// referenceVertexTol is the reference sweep's angular bisection
// tolerance: 28 halvings of a 256-sample bracket.
const referenceVertexTol = 1e-10

// referenceVertices is the from-scratch angular sweep: every sample
// angle re-evaluates the full constraint list through referenceRadius,
// and every breakpoint is refined by bisection on the active id — the
// fast path's closed-form breakpoints are held to it.
func referenceVertices(p *PossibleRegion, samples int) []Vertex {
	if samples < 16 {
		samples = 16
	}
	n := samples
	phis := make([]float64, n)
	actives := make([]int, n)
	for i := 0; i < n; i++ {
		phis[i] = 2 * math.Pi * float64(i) / float64(n)
		_, actives[i] = referenceRadius(p, phis[i])
	}
	var vs []Vertex
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		if actives[i] == actives[j] {
			continue
		}
		lo, hi := phis[i], phis[i]+2*math.Pi/float64(n)
		aLo := actives[i]
		for hi-lo > referenceVertexTol {
			mid := lo + (hi-lo)/2
			if _, am := referenceRadius(p, mid); am == aLo {
				lo = mid
			} else {
				hi = mid
			}
		}
		phi := geom.NormalizeAngle(lo + (hi-lo)/2)
		r, _ := referenceRadius(p, phi)
		vs = append(vs, Vertex{
			Phi:    phi,
			R:      r,
			P:      p.center.Add(geom.PolarUnit(phi).Scale(r)),
			Before: actives[i],
			After:  actives[j],
		})
	}
	sort.Slice(vs, func(a, b int) bool { return vs[a].Phi < vs[b].Phi })
	return vs
}

// referenceMaxRadius re-derives the pruning bound from a fresh sweep.
func referenceMaxRadius(p *PossibleRegion, samples int) float64 {
	vs := referenceVertices(p, samples)
	d := 0.0
	for _, v := range vs {
		if v.R > d {
			d = v.R
		}
	}
	if len(vs) == 0 {
		for i := 0; i < samples; i++ {
			if r, _ := referenceRadius(p, 2*math.Pi*float64(i)/float64(samples)); r > d {
				d = r
			}
		}
	}
	return d * (1 + 1e-6)
}

// referenceIPrune materializes the circular range result before
// filtering out Oi.
func referenceIPrune(tree *rtree.Tree, oi uncertain.Object, region *PossibleRegion, samples int) []int32 {
	d := referenceMaxRadius(region, samples)
	radius := 2*d - oi.Region.R
	if radius <= 0 {
		return nil
	}
	items := tree.CenterRange(geom.Circle{C: oi.Region.C, R: radius})
	ids := make([]int32, 0, len(items))
	for _, it := range items {
		if it.ID != oi.ID {
			ids = append(ids, it.ID)
		}
	}
	return ids
}

// referenceCPrune re-extracts the vertices (a second full sweep) before
// the d-bound test.
func referenceCPrune(candidates []int32, oi uncertain.Object, region *PossibleRegion, samples int, objs []uncertain.Object) []int32 {
	hull := hullOfVertices(referenceVertices(region, samples))
	if len(hull) == 0 {
		return candidates
	}
	bounds := make([]geom.Circle, len(hull))
	for i, v := range hull {
		bounds[i] = geom.Circle{C: v, R: v.Dist(oi.Region.C) * (1 + 1e-9)}
	}
	kept := make([]int32, 0, len(candidates))
	for _, id := range candidates {
		if oi.Region.Overlaps(objs[id].Region) {
			continue
		}
		cj := objs[id].Region.C
		for _, b := range bounds {
			if b.Contains(cj) {
				kept = append(kept, id)
				break
			}
		}
	}
	return kept
}

// referenceMergeIDs is the map-based sorted union.
func referenceMergeIDs(a, b []int32) []int32 {
	seen := make(map[int32]bool, len(a)+len(b))
	out := make([]int32, 0, len(a)+len(b))
	for _, s := range [][]int32{a, b} {
		for _, id := range s {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// referenceCell extracts the r-object ids of an exact cell through the
// from-scratch sweep (the RObjects half of PossibleRegion.Cell).
func referenceCell(p *PossibleRegion, samples int) []int32 {
	if samples <= 0 {
		samples = DefaultCellSamples
	}
	vs := referenceVertices(p, samples)
	seen := map[int32]bool{}
	var robjs []int32
	record := func(active int) {
		if active < 0 {
			return
		}
		id := p.cons[active].Obj
		if !seen[id] {
			seen[id] = true
			robjs = append(robjs, id)
		}
	}
	for _, v := range vs {
		record(v.Before)
		record(v.After)
	}
	if len(vs) == 0 {
		_, a := referenceRadius(p, 0)
		record(a)
	}
	sort.Slice(robjs, func(i, j int) bool { return robjs[i] < robjs[j] })
	return robjs
}

// DeriveCRObjectsReference is the naive Algorithm 2 for one object —
// the reference the optimized DeriveCRObjects/DeriveCR must match
// bitwise. objs is the live population, which tree indexes.
func DeriveCRObjectsReference(tree *rtree.Tree, oi uncertain.Object, objs []uncertain.Object, domain geom.Rect, k, ks, samples int) CRResult {
	seeds := referenceSelectSeeds(objs, oi, k, ks)
	region := NewPossibleRegion(oi.Region.C, domain)
	for _, id := range seeds {
		region.AddObject(oi, objs[id])
	}
	ids := referenceIPrune(tree, oi, region, samples)
	kept := referenceCPrune(ids, oi, region, samples, objs)
	cr := referenceMergeIDs(kept, seeds)
	return CRResult{Seeds: seeds, CR: cr, Region: region, NI: len(ids), NC: len(kept)}
}

// DeriveCRSetsReference is the naive whole-population derivation pass
// (sequential): per live object the constraint set the pre-optimization
// builder produced, under any strategy. It is the oracle of the
// derivation-equivalence property tests and the "before" measurement of
// BenchmarkDeriveCRSetsReference.
func DeriveCRSetsReference(store *uncertain.Store, domain geom.Rect, tree *rtree.Tree, opts BuildOptions) ([][]int32, error) {
	opts.normalize()
	objs := store.Dense()
	for i, o := range objs {
		if !store.Alive(int32(i)) {
			continue
		}
		if !domain.Contains(o.Region.C) {
			return nil, fmt.Errorf("core: object %d center %v outside domain %v", o.ID, o.Region.C, domain)
		}
	}
	if tree == nil && opts.Strategy != StrategyBasic {
		tree = BuildHelperRTree(store, opts.Fanout)
	}
	live := store.All()
	crSets := make([][]int32, len(objs))
	for i := range objs {
		if !store.Alive(int32(i)) {
			continue
		}
		oi := objs[i]
		switch opts.Strategy {
		case StrategyBasic:
			region := NewPossibleRegion(oi.Region.C, domain)
			for j := range objs {
				if j != i && store.Alive(int32(j)) {
					region.AddObject(oi, objs[j])
				}
			}
			crSets[i] = referenceCell(region, opts.CellSamples)
		case StrategyIC, StrategyICR:
			seeds := referenceSelectSeeds(live, oi, opts.SeedK, opts.SeedSectors)
			region := NewPossibleRegion(oi.Region.C, domain)
			for _, id := range seeds {
				region.AddObject(oi, objs[id])
			}
			ids := referenceIPrune(tree, oi, region, opts.RegionSamples)
			kept := ids
			if !opts.DisableCPrune {
				kept = referenceCPrune(ids, oi, region, opts.RegionSamples, objs)
			}
			cr := referenceMergeIDs(kept, seeds)
			if opts.Strategy == StrategyIC {
				crSets[i] = cr
				break
			}
			refined := NewPossibleRegion(oi.Region.C, domain)
			for _, id := range cr {
				refined.AddObject(oi, objs[id])
			}
			crSets[i] = referenceCell(refined, opts.CellSamples)
		default:
			return nil, fmt.Errorf("core: unknown strategy %v", opts.Strategy)
		}
	}
	return crSets, nil
}
