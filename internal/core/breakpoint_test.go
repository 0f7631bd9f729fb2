package core

import (
	"math"
	"strconv"
	"sync"
	"testing"

	"uvdiagram/internal/datagen"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/uncertain"
)

// seededRegions8000 returns the seeded possible region of every object
// of the n = 8 000 serving dataset (datagen.Uniform, seed 20100301) —
// the regions Build's I- and C-pruning extract breakpoints from: the
// paper's sector seeds with the default browse, at the default region
// resolution.
var seededRegions8000 = sync.OnceValue(func() []*PossibleRegion {
	cfg := datagen.Config{N: 8000, Seed: 20100301}
	store, err := uncertain.NewStore(datagen.Uniform(cfg), pager.New(pager.DefaultPageSize))
	if err != nil {
		panic(err)
	}
	objs := store.Dense()
	tree := BuildHelperRTree(store, DefaultBuildOptions().Fanout)
	sc := NewDeriveScratch()
	regions := make([]*PossibleRegion, len(objs))
	for i, oi := range objs {
		sc.selectSeeds(tree, oi, cfg.Domain(), DefaultSeedK, DefaultSeedSectors)
		regions[i] = NewPossibleRegion(oi.Region.C, cfg.Domain())
		for _, id := range sc.seeds {
			regions[i].AddObject(oi, objs[id])
		}
	}
	return regions
})

// angleGap is the distance between two angles on the circle.
func angleGap(a, b float64) float64 {
	d := math.Abs(geom.NormalizeAngle(a - b))
	return math.Min(d, 2*math.Pi-d)
}

// checkBreakpoints holds the closed-form Vertices of region to the
// bisection reference: the same count, the same Before/After labels, and
// every angle within 1e-10. A vertex between two constraints, where no
// third arc intrudes, must also be one of the intersection points the
// independent quartic solver finds for the two UV-edges. It returns how
// many vertices were checked against the quartic solver.
func checkBreakpoints(t *testing.T, name string, region *PossibleRegion, samples int) (quartic int) {
	t.Helper()
	got := region.Vertices(samples)
	want := referenceVertices(region, samples)
	if len(got) != len(want) {
		t.Fatalf("%s: %d vertices, reference %d", name, len(got), len(want))
	}
	for k, v := range got {
		w := want[k]
		if v.Before != w.Before || v.After != w.After {
			t.Fatalf("%s: vertex %d labeled %d→%d, reference %d→%d", name, k, v.Before, v.After, w.Before, w.After)
		}
		if d := angleGap(v.Phi, w.Phi); d > 1e-10 {
			t.Fatalf("%s: vertex %d (%d→%d) at φ = %.15f, reference %.15f (|Δφ| = %.3g)", name, k, v.Before, v.After, v.Phi, w.Phi, d)
		}
		if r, _ := region.Radius(v.Phi); r != v.R {
			t.Fatalf("%s: vertex %d carries R = %v, Radius(φ) = %v", name, k, v.R, r)
		}
		if v.Before < 0 || v.After < 0 {
			continue
		}
		if _, next := region.Radius(v.Phi + 1e-7); next != v.After {
			continue // a third arc owns the boundary right after the vertex
		}
		cons := region.Constraints()
		tol := 1e-6 * (1 + v.R)
		found := false
		for _, x := range geom.IntersectUVEdges(cons[v.Before].Edge, cons[v.After].Edge) {
			if x.Dist(v.P) <= tol {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: vertex %d (%d→%d) at %v is no intersection of the two UV-edges (%v)",
				name, k, v.Before, v.After, v.P, geom.IntersectUVEdges(cons[v.Before].Edge, cons[v.After].Edge))
		}
		quartic++
	}
	return quartic
}

// TestBreakpointsMatchBisection holds the closed-form breakpoints to the
// bisection sweep they replaced (referenceVertices) on every seeded
// region of the n = 8 000 serving dataset, and on the degenerate inputs
// the seeded regions rarely produce: domain corners that fall exactly on
// a sample angle, a third arc narrower than one sample bracket, and two
// arcs whose bounds are proportional (A = B = 0 in crossing).
func TestBreakpointsMatchBisection(t *testing.T) {
	t.Run("seeded-8000", func(t *testing.T) {
		regions := seededRegions8000()
		verts, quartic := 0, 0
		for i, region := range regions {
			quartic += checkBreakpoints(t, "object "+strconv.Itoa(i), region, 256)
			verts += len(region.Vertices(256))
		}
		t.Logf("%d vertices, %d also checked against IntersectUVEdges", verts, quartic)
		if quartic < verts/2 {
			t.Fatalf("only %d of %d vertices reached the quartic check", quartic, verts)
		}
	})

	t.Run("domain-corners", func(t *testing.T) {
		// Centered in a square, every corner lies on a sample angle of a
		// resolution divisible by 8; off center, none does.
		domain := geom.Square(1000)
		for _, c := range []geom.Point{geom.Pt(500, 500), geom.Pt(137.5, 802.25)} {
			for _, samples := range []int{16, 256, 720} {
				region := NewPossibleRegion(c, domain)
				checkBreakpoints(t, "corners", region, samples)
				vs := region.Vertices(samples)
				if len(vs) != 4 {
					t.Fatalf("center %v, %d samples: %d vertices, want the 4 corners", c, samples, len(vs))
				}
				for _, v := range vs {
					corner := false
					for _, k := range domain.Corners() {
						corner = corner || k.Dist(v.P) < 1e-9
					}
					if !corner {
						t.Fatalf("center %v, %d samples: vertex %v (%d→%d) is no domain corner", c, samples, v.P, v.Before, v.After)
					}
				}
			}
		}
	})

	t.Run("intruding-arc", func(t *testing.T) {
		// Arcs a and b are near-straight UV-edges whose normals sit ±0.3 rad
		// either side of θ0, the middle of sample bracket 40; they cross on
		// the ray θ0. Arc c, normal θ0, passes just inside that crossing,
		// so it owns the boundary only within ~±0.0023 rad of θ0 — inside
		// the bracket, where no sample sees it. Crossing(a, b) lands in c,
		// so the breakpoint must take the intruder step to (a, c).
		const samples = 256
		h := 2 * math.Pi / samples
		theta0 := 40.5 * h
		ci := geom.Pt(5000, 5000)
		oi := circleObj(0, ci.X, ci.Y, 0.5)
		at := func(id int32, phi, d float64) uncertain.Object {
			p := ci.Add(geom.PolarUnit(phi).Scale(d))
			return circleObj(id, p.X, p.Y, 0.5)
		}
		region := NewPossibleRegion(ci, geom.Square(10000))
		for k, o := range []uncertain.Object{
			at(1, theta0-0.3, 200),
			at(2, theta0+0.3, 200),
			at(3, theta0, 2*104.6),
		} {
			if !region.AddObject(oi, o) {
				t.Fatalf("arc %d: objects overlap", k)
			}
		}
		pr := region.syncProfile(samples)
		for i, a := range pr.active {
			if a == 2 {
				t.Fatalf("sample %d sees arc c: it is not narrower than a bracket", i)
			}
		}
		if r, a := region.Radius(theta0); a != 2 {
			t.Fatalf("arc c does not own θ0 (owner %d, R %v)", a, r)
		}
		region.prof.evals = 0
		checkBreakpoints(t, "intruding-arc", region, samples)
		var in *Vertex
		for k, v := range region.Vertices(samples) {
			if angleGap(v.Phi, theta0) < h {
				in = &region.Vertices(samples)[k]
			}
		}
		if in == nil || in.Before != 0 || in.After != 1 {
			t.Fatalf("no a→b vertex in bracket 40: %+v", in)
		}
		if region.prof.evals <= len(region.Vertices(samples)) {
			t.Fatalf("%d Radius evaluations for %d vertices: the intruder step never ran", region.prof.evals, len(region.Vertices(samples)))
		}
		// The vertex is where a gives way to c.
		cons := region.Constraints()
		found := false
		for _, x := range geom.IntersectUVEdges(cons[0].Edge, cons[2].Edge) {
			found = found || x.Dist(in.P) < 1e-6*(1+in.R)
		}
		if !found {
			t.Fatalf("intruded vertex %v is not on a ∩ c %v", in.P, geom.IntersectUVEdges(cons[0].Edge, cons[2].Edge))
		}
	})

	t.Run("proportional-bounds", func(t *testing.T) {
		// Point objects whose bisector is the domain's east edge: the
		// constraint's bound n/(l·u) and the edge's are the same function
		// (A = B = C = 0), so any angle of a bracket is their breakpoint and
		// crossing returns the midpoint.
		ci := geom.Pt(900, 500)
		region := NewPossibleRegion(ci, geom.Square(1000))
		if !region.AddObject(circleObj(0, ci.X, ci.Y, 0), circleObj(1, 1100, 500, 0)) {
			t.Fatal("mirror object: no constraint")
		}
		lo, hi := 0.1, 0.1+2*math.Pi/256
		if got := region.crossing(lo, hi, edgeEast, 0); got != lo+(hi-lo)/2 {
			t.Fatalf("crossing of proportional bounds = %v, want the midpoint %v", got, lo+(hi-lo)/2)
		}
		for _, v := range region.Vertices(256) {
			if r, _ := region.Radius(v.Phi); r != v.R {
				t.Fatalf("vertex %d→%d carries R = %v, Radius(φ) = %v", v.Before, v.After, v.R, r)
			}
			if v.Before >= 0 && v.After >= 0 {
				t.Fatalf("vertex %d→%d between two constraints, region has one", v.Before, v.After)
			}
		}
	})
}

// TestBreakpointEvals is the blocking, host-independent cost gate of
// breakpoint extraction: a count, not a time. Over the seeded regions of
// the n = 8 000 serving dataset, vertex extraction may spend at most 2
// Radius evaluations per vertex on average. The closed form spends one
// per vertex plus one per intruder step (measured: 1.0048); the
// bisection it replaced spent 29 (28 halvings of a 256-sample bracket
// down to 1e-10, then the radius).
func TestBreakpointEvals(t *testing.T) {
	const maxMeanEvals = 2.0
	evals, verts := 0, 0
	for _, region := range seededRegions8000() {
		region.prof.evals = 0
		region.prof.vertsAt = -1 // re-extract
		verts += len(region.Vertices(256))
		evals += region.prof.evals
	}
	mean := float64(evals) / float64(verts)
	t.Logf("%d Radius evaluations for %d vertices: %.4f per vertex", evals, verts, mean)
	if mean > maxMeanEvals {
		t.Fatalf("%.4f Radius evaluations per vertex, gate %v", mean, maxMeanEvals)
	}
}
