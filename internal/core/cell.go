package core

import (
	"math"
	"sort"

	"uvdiagram/internal/geom"
)

// DefaultCellSamples is the default angular resolution for exact
// cell-boundary extraction.
const DefaultCellSamples = 720

// Vertex is a breakpoint of a region boundary: the meeting point of two
// boundary arcs (UV-edges or domain edges).
type Vertex struct {
	Phi    float64    // polar angle around the region center
	R      float64    // radial extent at Phi
	P      geom.Point // the vertex location
	Before int        // active id for angles just below Phi
	After  int        // active id for angles just above Phi
}

// Vertices extracts the region's boundary breakpoints: an angular sweep
// of the radial function at the given resolution finds every sample
// bracket whose ends are bounded by different arcs, and the breakpoint
// inside it is solved in closed form (see breakpoint). One vertex is
// reported per such bracket, labeled with the arcs owning its two ends.
// Vertices are returned in increasing angle order. Arcs narrower than
// 2π/samples can be missed; the callers that need guarantees use
// generous resolutions.
//
// The sweep reads the region's incrementally maintained radius profile
// (O(samples) per added constraint instead of O(samples × constraints)
// per call) and the result is cached: I-pruning's MaxRadius and
// C-pruning's hull extraction share one sweep. The returned slice is
// owned by the region — valid until the region is next modified or
// Reset; callers that retain it must copy (Cell does).
func (p *PossibleRegion) Vertices(samples int) []Vertex {
	if samples < 16 {
		samples = 16
	}
	pr := p.syncProfile(samples)
	if pr.vertsAt == len(p.cons) {
		return pr.verts
	}
	n := samples
	vs := pr.verts[:0]
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		if pr.active[i] == pr.active[j] {
			continue
		}
		lo := pr.ring.phis[i]
		phi, r, dir := p.breakpoint(lo, lo+2*math.Pi/float64(n), pr.active[i], pr.active[j])
		vs = append(vs, Vertex{
			Phi:    phi,
			R:      r,
			P:      p.center.Add(dir.Scale(r)),
			Before: pr.active[i],
			After:  pr.active[j],
		})
	}
	sort.Slice(vs, func(a, b int) bool { return vs[a].Phi < vs[b].Phi })
	pr.verts = vs
	pr.vertsAt = len(p.cons)
	return vs
}

// breakpoint locates where arc a, which owns the boundary at lo, gives
// way inside the bracket [lo, hi] whose end hi arc b owns. It returns
// the angle (normalized), the radius there and its unit direction. The
// crossing of a and b is accepted when Radius there names one of them.
// When a third arc c owns the boundary there instead, c intrudes
// between the two, and a gives way to c first: the search repeats on
// (a, c) over [lo, φ]. Each step adds a distinct arc in exact
// arithmetic, so the steps are capped at the number of arcs; at the cap
// the last crossing is kept.
func (p *PossibleRegion) breakpoint(lo, hi float64, a, b int) (phi, r float64, dir geom.Point) {
	for step := 0; ; step++ {
		x := p.crossing(lo, hi, a, b)
		phi = geom.NormalizeAngle(x)
		dir = geom.PolarUnit(phi)
		var c int
		r, c = p.RadiusDir(dir)
		p.prof.evals++
		if c == a || c == b || step > len(p.cons)+4 {
			return phi, r, dir
		}
		hi, b = x, c
	}
}

// crossing returns the angle in [lo, hi] where arcs a and b bound the
// region equally. Every arc's radial bound has the form
// t(u) = n / (l·u + m) along the unit direction u (see radialForm), so
// t_a = t_b is linear in u: A cos φ + B sin φ = C with
// (A, B) = n_a·l_b − n_b·l_a and C = n_b·m_a − n_a·m_b, whose roots are
// φ = atan2(B, A) ± acos(C / √(A² + B²)). Of the two, the root nearest
// the bracket (shifted by whole turns) is returned, clamped into it:
// with a owning lo and b owning hi, a root lies inside the bracket in
// exact arithmetic (where both bounds are positive, or, when their
// domains of validity do not meet, where both are negative — inside a
// third arc), so the clamp absorbs only rounding. A = B = 0 means the
// two bounds are proportional everywhere; no angle is preferred and the
// bracket midpoint is returned.
func (p *PossibleRegion) crossing(lo, hi float64, a, b int) float64 {
	na, la, ma := p.radialForm(a)
	nb, lb, mb := p.radialForm(b)
	A := na*lb.X - nb*la.X
	B := na*lb.Y - nb*la.Y
	rho := math.Sqrt(A*A + B*B)
	mid := lo + (hi-lo)/2
	if rho == 0 {
		return mid
	}
	base := math.Atan2(B, A)
	half := math.Acos(max(-1, min(1, (nb*ma-na*mb)/rho)))
	best, gap := mid, math.Inf(1)
	for _, root := range [2]float64{base - half, base + half} {
		root += 2 * math.Pi * math.Round((mid-root)/(2*math.Pi))
		phi := min(max(root, lo), hi)
		if g := math.Abs(phi - root); g < gap {
			best, gap = phi, g
		}
	}
	return best
}

// radialForm returns the coefficients of arc id's radial bound
// t(u) = n / (l·u + m), positive exactly where the arc bounds the ray:
// a constraint's prepared numerator half, focal offset and S (the form
// Constraint.Bound evaluates), or a domain edge's signed offset from the
// center along its axis (m = 0).
func (p *PossibleRegion) radialForm(id int) (n float64, l geom.Point, m float64) {
	switch id {
	case edgeEast:
		return p.domain.Max.X - p.center.X, geom.Point{X: 1}, 0
	case edgeWest:
		return p.domain.Min.X - p.center.X, geom.Point{X: 1}, 0
	case edgeNorth:
		return p.domain.Max.Y - p.center.Y, geom.Point{Y: 1}, 0
	case edgeSouth:
		return p.domain.Min.Y - p.center.Y, geom.Point{Y: 1}, 0
	}
	c := &p.cons[id]
	return c.num / 2, c.w, c.Edge.S
}

// Area returns the region area ½∮R(φ)²dφ by composite Simpson
// quadrature at the given angular resolution.
func (p *PossibleRegion) Area(samples int) float64 {
	if samples < 16 {
		samples = 16
	}
	n := samples * 2 // Simpson needs an even number of intervals
	h := 2 * math.Pi / float64(n)
	f := func(phi float64) float64 {
		r, _ := p.Radius(phi)
		return r * r
	}
	sum := f(0) + f(2*math.Pi)
	for i := 1; i < n; i++ {
		if i%2 == 1 {
			sum += 4 * f(float64(i)*h)
		} else {
			sum += 2 * f(float64(i)*h)
		}
	}
	return sum * h / 3 / 2
}

// UVCell is an exact UV-cell: the possible region refined by the
// outside regions of all of its reference objects (Definition 1).
type UVCell struct {
	Object   int32      // the cell's owner Oi
	Center   geom.Point // ci, the star center
	Vertices []Vertex
	RObjects []int32 // objects contributing at least one boundary arc
	area     float64
}

// Cell extracts the exact cell structure from the region at the given
// angular resolution: boundary vertices, the set of r-objects (labels
// of the active hyperbolic arcs) and the cell area. The caller is
// responsible for having added every relevant constraint (all objects
// for Algorithm 1, or the cr-objects for the ICR strategy).
func (p *PossibleRegion) Cell(objID int32, samples int) *UVCell {
	if samples <= 0 {
		samples = DefaultCellSamples
	}
	vs := p.Vertices(samples)
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
	// Arc labels appear as vertex sides; a constraint active over the
	// whole sweep (no vertices) is caught by sampling.
	for _, v := range vs {
		record(v.Before)
		record(v.After)
	}
	if len(vs) == 0 {
		_, a := p.Radius(0)
		record(a)
	}
	sort.Slice(robjs, func(i, j int) bool { return robjs[i] < robjs[j] })
	return &UVCell{
		Object: objID,
		Center: p.center,
		// Copy: the cell outlives the region's cached sweep buffer.
		Vertices: append([]Vertex(nil), vs...),
		RObjects: robjs,
		area:     p.Area(samples),
	}
}

// Area returns the exact cell area computed at extraction time.
func (c *UVCell) Area() float64 { return c.area }

// Hull returns the convex hull CH of the cell/region boundary. Because
// hyperbolic arcs are concave toward the region, only breakpoints can
// be extreme points, so the hull of the vertices is the hull of the
// region (Lemma 3's CH(Pi)).
func hullOfVertices(vs []Vertex) []geom.Point {
	pts := make([]geom.Point, len(vs))
	for i, v := range vs {
		pts[i] = v.P
	}
	return geom.ConvexHull(pts)
}
