package core3

// The pre-fast-path 3D build, retained VERBATIM as the equivalence
// oracle for the parallel, scratch-threaded path in build3.go
// (test-only code). The fast path must produce bitwise-identical
// cr-sets, index stats and query answers; TestBuild3Parity sweeps
// worker counts against these loops.

import (
	"time"

	"uvdiagram/internal/geom3"
	"uvdiagram/internal/uncertain3"
)

// referenceMaxRadius3 is MaxRadius with the radial function evaluated
// through the SPECIFICATION — geom3.UVEdge3.RadialBound, existence test
// and per-edge subexpressions re-derived per call — instead of the
// prepared Constraint3.Bound the fast path uses, so the parity tests
// compare prepared against spec rather than prepared against itself.
func referenceMaxRadius3(p *PossibleRegion3, dirs []geom3.Point3) float64 {
	d := 0.0
	for _, u := range dirs {
		r := p.Domain().RayExit(p.Center(), u)
		for _, c := range p.Constraints() {
			if t, ok := c.Edge.RadialBound(u); ok && t < r {
				r = t
			}
		}
		if r > d {
			d = r
		}
	}
	return inflate(d, len(dirs))
}

// DeriveCR3Reference is the original allocating derivation of one
// object's 3D cr-set: a fresh PossibleRegion3 and candidate slice per
// fixpoint round, per-call center-range result slices. Kept as the
// oracle the scratch-threaded DeriveCR3 is compared against.
func DeriveCR3Reference(grid *HashGrid3, oi uncertain3.Object3, objs []uncertain3.Object3, domain geom3.Box, dirs []geom3.Point3) ([]int32, *PossibleRegion3) {
	pr := NewPossibleRegion3(oi.Region.C, domain)
	for _, id := range nearestSeedsInto(grid, oi, objs, domain, seedCount, nil, &seedSorter3{}) {
		pr.AddObject(oi, objs[id])
	}
	d := referenceMaxRadius3(pr, dirs)
	if dd := domain.MaxDist(oi.Region.C); dd < d {
		d = dd // region ⊆ domain: the corner distance is always valid
	}
	var ids []int32
	for iter := 0; iter < 6; iter++ {
		radius := 2*d - oi.Region.R
		if radius <= 0 {
			radius = d
		}
		var cands []int32
		if grid != nil {
			for _, id := range grid.CenterRange(geom3.Sphere{C: oi.Region.C, R: radius}) {
				if id != oi.ID {
					cands = append(cands, id)
				}
			}
		} else {
			for j := range objs {
				if objs[j].ID != oi.ID && objs[j].Region.C.Dist(oi.Region.C) <= radius {
					cands = append(cands, objs[j].ID)
				}
			}
		}
		pr = NewPossibleRegion3(oi.Region.C, domain)
		for _, j := range cands {
			pr.AddObject(oi, objs[j])
		}
		ids = cands
		d2 := referenceMaxRadius3(pr, dirs)
		if d2 >= d*(1-1e-9) {
			break
		}
		d = d2
	}
	return ids, pr
}

// Build3Reference is the original single-threaded 3D build loop: derive
// and insert object by object, no worker pool, no scratch reuse. Each
// insert goes through the shared grid's write pass, published once at
// the end. Retained as the fast path's equivalence oracle.
func Build3Reference(objs []uncertain3.Object3, domain geom3.Box, opts Options3) (*OctIndex, BuildStats3, error) {
	if err := validate3(objs, domain); err != nil {
		return nil, BuildStats3{}, err
	}
	ix, err := newOctIndex(objs, domain, opts)
	if err != nil {
		return nil, BuildStats3{}, err
	}
	opts = ix.opts
	stats := BuildStats3{N: len(objs), Strategy: StrategyIC3}
	t0 := time.Now()

	grid := NewHashGrid3(objs, domain, 0)
	dirs := geom3.FibonacciSphere(opts.Dirs)
	p, root := ix.g.Begin()

	for i := range objs {
		p0 := time.Now()
		ids, _ := DeriveCR3Reference(grid, objs[i], objs, domain, dirs)
		stats.PruneDur += time.Since(p0)
		stats.SumCR += int64(len(ids))

		i0 := time.Now()
		ix.crOf[i] = ids
		root = p.Insert(int32(i), root)
		stats.IndexDur += time.Since(i0)
	}
	i1 := time.Now()
	p.Install(root)
	stats.IndexDur += time.Since(i1)
	stats.TotalDur = time.Since(t0)
	stats.Index = ix.Stats()
	return ix, stats, nil
}
