// Package core3 lifts the UV-diagram to three dimensions — the
// multi-dimensional extension the paper's conclusion lists as future
// work. Objects are uncertain balls; UV-edges become hyperboloid
// sheets; the adaptive quad-tree becomes an adaptive octree whose
// 4-point overlap test becomes an 8-corner test (the outside regions
// stay convex in every dimension); possible regions remain star-shaped
// around the object center, so the radial representation carries over
// with directions sampled from a Fibonacci sphere lattice instead of a
// uniform angular sweep.
//
// The octree is the 2D index's adaptive grid (internal/agrid) at fanout
// 8: this package supplies only the 8-corner test and the leaf tuple.
// The UVOC octree stream it writes and reads is unchanged.
package core3

import (
	"math"

	"uvdiagram/internal/geom3"
	"uvdiagram/internal/uncertain3"
)

// Constraint3 is the outside region of one 3D UV-edge, tagged with the
// reference object's identity. Like core.Constraint it is prepared:
// NewConstraint3 proves the edge exists and stores the per-edge
// subexpressions of geom3.UVEdge3.RadialBound (w = Fi − Fj and
// S² − |w|²) for Bound.
type Constraint3 struct {
	Obj  int32
	Edge geom3.UVEdge3
	w    geom3.Point3
	num  float64
}

// NewConstraint3 builds the constraint Oi gains from Oj; ok is false
// when the two balls overlap (no edge, empty outside region).
func NewConstraint3(oi, oj uncertain3.Object3) (Constraint3, bool) {
	e := geom3.NewUVEdge3(oi.Region, oj.Region)
	if !e.Exists() {
		return Constraint3{}, false
	}
	w := e.Fi.Sub(e.Fj)
	return Constraint3{Obj: oj.ID, Edge: e, w: w, num: e.S*e.S - w.NormSq()}, true
}

// Bound is Edge.RadialBound(dir) with the existence test and the
// per-edge subexpressions taken from construction: the remaining
// operations are RadialBound's, one for one, so (t, ok) is bitwise
// identical. The zero Constraint3 reports no bound (den = 0).
func (c *Constraint3) Bound(dir geom3.Point3) (t float64, ok bool) {
	den := c.w.Dot(dir) + c.Edge.S
	if den >= 0 {
		return 0, false
	}
	return c.num / (2 * den), true
}

// PossibleRegion3 is a region covering an object's 3D UV-cell,
// represented radially around the object center (star-shaped by the
// same triangle-inequality argument as in 2D).
type PossibleRegion3 struct {
	center geom3.Point3
	domain geom3.Box
	cons   []Constraint3
}

// NewPossibleRegion3 starts the region as the whole domain.
func NewPossibleRegion3(center geom3.Point3, domain geom3.Box) *PossibleRegion3 {
	return &PossibleRegion3{center: center, domain: domain}
}

// Reset re-centers the region and drops every constraint while keeping
// the constraint storage for reuse — the steady-state entry point of
// the derivation fast path.
func (p *PossibleRegion3) Reset(center geom3.Point3, domain geom3.Box) {
	p.center = center
	p.domain = domain
	p.cons = p.cons[:0]
}

// Center returns the star center.
func (p *PossibleRegion3) Center() geom3.Point3 { return p.center }

// Domain returns the domain box.
func (p *PossibleRegion3) Domain() geom3.Box { return p.domain }

// Constraints returns the constraints added so far (shared slice).
func (p *PossibleRegion3) Constraints() []Constraint3 { return p.cons }

// AddObject shrinks the region by Oj's outside region; reports whether
// a constraint was added.
func (p *PossibleRegion3) AddObject(oi, oj uncertain3.Object3) bool {
	c, ok := NewConstraint3(oi, oj)
	if ok {
		p.cons = append(p.cons, c)
	}
	return ok
}

// RadiusDir returns the exact extent of the region along the unit
// direction dir.
func (p *PossibleRegion3) RadiusDir(dir geom3.Point3) float64 {
	r := p.domain.RayExit(p.center, dir)
	for i := range p.cons {
		if t, ok := p.cons[i].Bound(dir); ok && t < r {
			r = t
		}
	}
	return r
}

// Contains reports whether q belongs to the region: inside the domain
// and outside every constraint's outside region.
func (p *PossibleRegion3) Contains(q geom3.Point3) bool {
	if !p.domain.Contains(q) {
		return false
	}
	for i := range p.cons {
		if p.cons[i].Edge.InOutside(q) {
			return false
		}
	}
	return true
}

// MaxRadius returns an upper bound on the maximum distance of the
// region from the center, sampled over the direction lattice and
// inflated by a safety factor that accounts for the lattice's angular
// resolution (an overestimate only weakens pruning, never its
// correctness; the inflation is validated against brute force in
// tests).
func (p *PossibleRegion3) MaxRadius(dirs []geom3.Point3) float64 {
	d := 0.0
	for _, u := range dirs {
		if r := p.RadiusDir(u); r > d {
			d = r
		}
	}
	return inflate(d, len(dirs))
}

// inflate applies MaxRadius's safety factor to d, the largest radius
// sampled over a lattice of n directions: the mean angular spacing is
// ~ sqrt(4π/n), and the radial function of a convex-complement region
// can overshoot a sample by a factor ~ 1/cos(spacing).
func inflate(d float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	spacing := math.Sqrt(4 * math.Pi / float64(n))
	return d * (1 + 2*spacing*spacing)
}

// Volume approximates the region volume by the radial quadrature
// (1/3)·Σ R(u)³·(4π/n) over the direction lattice.
func (p *PossibleRegion3) Volume(dirs []geom3.Point3) float64 {
	acc := 0.0
	for _, u := range dirs {
		r := p.RadiusDir(u)
		acc += r * r * r
	}
	return acc * 4 * math.Pi / (3 * float64(len(dirs)))
}
